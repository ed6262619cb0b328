"""Independent checks of issued certificates.

Every claim in a payload is recomputed from the Cayley table with plain
Python sets (`plain.py` and the repository's `tests/oracles.py`), never with
the package's bitsets, numpy tables or algebra.  Where a full recomputation
is too slow, the check tests properties the method must have instead:

* connectivity and atoms: kappa and the identity atom are recomputed over
  the subgroup lattice (for K < 1 the identity atom is a subgroup), and
  kappa must not exceed the cost of seeded sample sets;
* Petridis with |A| > 12: X is a subset of A, K = |XS|/|X|, no seeded
  sample Y of A beats K, and |CXS| <= K|CX| on seeded samples C;
* exhaustive Kneser-failure scans: pairs_checked = (2^n - 1)^2, every
  finding is recomputed and really fails, findings are sorted and distinct,
  and their number equals the stored count in `expected_counts.json`
  (regenerate it with `python3 bench/regen_counts.py`).

`check` returns a list of problems; an empty list means the certificate
passed.  Checks run outside every timed section.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import plain
from plain import rational

HERE = Path(__file__).resolve().parent
EXACT_PETRIDIS_MAX = 12  # exact minimality check over all 2^|A| - 1 subsets
SAMPLES = 48


def load_oracles(root: Path):
    """tests/oracles.py of the checkout, loaded read-only by path."""
    spec = importlib.util.spec_from_file_location("bench_oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Mismatch(Exception):
    pass


class Oracle:
    """Plain-set groups and subgroup lists, built once per spec."""

    def __init__(self, root: Path):
        self.naive = load_oracles(root)
        self.expected = json.loads((HERE / "expected_counts.json").read_text())
        self._groups: dict = {}
        self._subgroups: dict = {}

    def group(self, spec):
        key = plain.spec_key(spec)
        if key not in self._groups:
            self._groups[key] = plain.build(spec)
        return self._groups[key]

    def subgroups(self, spec):
        """Every subgroup; the count must match its closed form or stored copy."""
        key = plain.spec_key(spec)
        if key not in self._subgroups:
            G = self.group(spec)
            subs = plain.subgroups(G)
            want = plain.closed_form_subgroup_count(spec)
            if want is None:
                want = self.expected["subgroups"].get(plain.count_key(spec, G))
            if want is None:
                raise Mismatch(f"no closed form or stored subgroup count for {G.name}")
            if len(subs) != want:
                raise Mismatch(f"{G.name}: {len(subs)} subgroups, expected {want}")
            self._subgroups[key] = subs
        return self._subgroups[key]

    def package_subgroups_ok(self, spec, lists) -> list[str]:
        """Compare a subgroup list captured from the package with ours."""
        mine = sorted(tuple(sorted(H)) for H in self.subgroups(spec))
        theirs = sorted(tuple(H) for H in lists)
        if mine != theirs:
            return [f"{self.group(spec).name}: package lists {len(theirs)} subgroups, "
                    f"plain sets find {len(mine)}"]
        return []


def subset(G, X) -> dict:
    idx = sorted(X)
    return {"indices": idx, "labels": [G.labels[i] for i in idx]}


def _set(config, name) -> frozenset:
    return frozenset(config["sets"][name])


def _sample_sets(G, rng, pool, count):
    pool = sorted(pool)
    out = []
    for _ in range(count):
        k = rng.randrange(1, len(pool) + 1)
        out.append(frozenset(rng.sample(pool, k)))
    return out


def _identity_atom(oracle, spec, G, S, K):
    """(kappa, atom) over the subgroup lattice: the identity atom for K < 1
    is the smallest subgroup of least cost, and it must be unique."""
    if not K < 1:
        raise Mismatch(f"K = {K} is not below 1")
    costs = [(oracle.naive.naive_cost(G, S, K, H), len(H), H) for H in oracle.subgroups(spec)]
    kappa = min(c for c, _, _ in costs)
    size = min(n for c, n, _ in costs if c == kappa)
    atoms = [H for c, n, H in costs if c == kappa and n == size]
    if len(atoms) != 1:
        raise Mismatch(f"{len(atoms)} subgroups of size {size} attain kappa")
    return kappa, atoms[0]


def _kappa_is_lower_bound(naive, G, S, K, kappa, rng):
    for X in _sample_sets(G, rng, range(G.order), SAMPLES):
        if naive.naive_cost(G, S, K, X) < kappa:
            raise Mismatch(f"sample set {sorted(X)} costs less than kappa {kappa}")


def _kneser(G, naive, A, B) -> dict:
    total = naive.naive_product(G, A, B)
    H = naive.naive_right_stabilizer(G, total)
    lhs, rhs = len(total), len(A) + len(B) - len(H)
    return {"set_a": subset(G, A), "set_b": subset(G, B), "sum": subset(G, total),
            "stabilizer": subset(G, H), "lhs": lhs, "rhs": rhs,
            "holds": lhs >= rhs, "equality": lhs == rhs}


def _cover(G, H, T, side) -> dict:
    if side == "right":
        cosets = {frozenset(G.mul[h][t] for h in H) for t in T}
    else:
        cosets = {frozenset(G.mul[t][h] for h in H) for t in T}
    reps = sorted(min(c) for c in cosets)
    return {"subgroup": subset(G, H), "side": side, "representatives": reps,
            "representative_labels": [G.labels[r] for r in reps],
            "covered": subset(G, T), "count": len(reps)}


# --- one function per command: the payload the certificate must carry ---------


def _doubling(o, spec, G, config, payload, rng):
    A = _set(config, "A")
    square = o.naive.naive_product(G, A, A)
    ratio = Fraction(len(square), len(A))
    return {"group": G.name, "set_a": subset(G, A), "square": subset(G, square),
            "cardinality_a": len(A), "cardinality_square": len(square),
            "ratio": rational(ratio), "epsilon": rational(2 - ratio)}


def _connectivity(o, spec, G, config, payload, rng):
    S, K = _set(config, "S"), Fraction(config["K"])
    kappa, atom = _identity_atom(o, spec, G, S, K)
    solver = config.get("solver", "subgroup_restricted")
    if solver == "brute_force":
        _kappa_is_lower_bound(o.naive, G, S, K, kappa, rng)
    return {"group": G.name, "set_s": subset(G, S), "k": rational(K), "solver": solver,
            "kappa": rational(kappa), "identity_atom": subset(G, atom),
            "atom_is_subgroup": o.naive.is_subgroup_naive(G, atom),
            "fragment_total": None, "fragments": None}


def _atoms(o, spec, G, config, payload, rng):
    S, K = _set(config, "S"), Fraction(config["K"])
    kappa, H = _identity_atom(o, spec, G, S, K)
    _kappa_is_lower_bound(o.naive, G, S, K, kappa, rng)
    cosets = sorted({tuple(sorted(G.mul[x][h] for h in H)) for x in range(G.order)})
    return {"group": G.name, "set_s": subset(G, S), "k": rational(K),
            "kappa": rational(kappa), "identity_atom": subset(G, H),
            "atom_is_subgroup": o.naive.is_subgroup_naive(G, H),
            "atoms": [subset(G, c) for c in cosets], "atoms_are_left_cosets": True,
            "atoms_pairwise_disjoint": True, "ok": True}


def _kneser_cmd(o, spec, G, config, payload, rng):
    out = _kneser(G, o.naive, _set(config, "A"), _set(config, "B"))
    if not out["holds"]:
        raise Mismatch("Kneser's inequality fails in an abelian group")
    return dict(out, group=G.name)


def _corollary(o, spec, G, config, payload, rng):
    A, eps = _set(config, "A"), Fraction(config["epsilon"])
    square = o.naive.naive_product(G, A, A)
    bound = (2 - eps) * len(A)
    if len(square) > bound:
        raise Mismatch("the corollary's hypothesis does not hold")
    H = o.naive.naive_right_stabilizer(G, square)
    cover = _cover(G, H, square, "left")
    cover_bound = Fraction(2) / eps - 1
    h_ok, c_ok = len(H) <= bound, cover["count"] <= cover_bound
    if not (h_ok and c_ok):
        raise Mismatch("the covering corollary fails")
    return {"group": G.name, "set_a": subset(G, A), "epsilon": rational(eps),
            "square": subset(G, square), "stabilizer": subset(G, H),
            "h_bound": rational(bound), "h_bound_ok": h_ok, "cover": cover,
            "cover_bound": rational(cover_bound), "cover_bound_ok": c_ok, "holds": True}


def _theorem_main(o, spec, G, config, payload, rng):
    A, S, eps = _set(config, "A"), _set(config, "S"), Fraction(config["epsilon"])
    if len(A) < len(S) or len(o.naive.naive_product(G, A, S)) > (2 - eps) * len(S):
        raise Mismatch("the theorem's hypotheses do not hold")
    K = 1 - eps / 2
    kappa, H = _identity_atom(o, spec, G, S, K)
    s0 = min(S)
    cover = None
    if S <= {G.mul[h][s0] for h in H}:
        branch, bound = "single_right_coset", Fraction(2) / eps * len(S)
        holds = len(H) <= bound
    else:
        branch, bound = "multi_coset_cover", Fraction(len(S))
        cover = _cover(G, H, S, "right")
        holds = len(H) <= len(S) and cover["count"] <= Fraction(2) / eps - 1
    if not holds:
        raise Mismatch("the structure theorem fails")
    return {"group": G.name, "set_a": subset(G, A), "set_s": subset(G, S),
            "epsilon": rational(eps), "k": rational(K), "hypotheses_ok": True,
            "kappa": rational(kappa), "atom": subset(G, H), "branch": branch,
            "bound_h_size": rational(bound),
            "sharp_h_bound": rational((Fraction(2) / eps - 1) * len(S)),
            "cover": cover, "violations": []}


def _ratio(naive, G, X, S):
    return Fraction(len(naive.naive_product(G, X, S)), len(X))


def _petridis_minimizer(naive, G, A, S, stored, rng):
    if len(A) <= EXACT_PETRIDIS_MAX:
        best = None
        for k in range(1, len(A) + 1):
            for X in itertools.combinations(sorted(A), k):
                key = (_ratio(naive, G, X, S), -k, X)  # ties: larger |X|, then smallest
                if best is None or key < best:
                    best = key
        return frozenset(best[2])
    X = frozenset(stored)
    if not X or not X <= A:
        raise Mismatch("X is not a nonempty subset of A")
    K = _ratio(naive, G, X, S)
    for Y in _sample_sets(G, rng, A, SAMPLES) + [frozenset([a]) for a in A] + [A]:
        if _ratio(naive, G, Y, S) < K:
            raise Mismatch(f"subset {sorted(Y)} of A has a smaller ratio than X")
    return X


def _petridis(o, spec, G, config, payload, rng):
    A, S = _set(config, "A"), _set(config, "S")
    mode, budget = config.get("mode", "exhaustive"), config.get("budget", 1 << 20)
    product = o.naive.naive_product
    X = _petridis_minimizer(o.naive, G, A, S, payload["x"]["indices"], rng)
    K = _ratio(o.naive, G, X, S)
    XS = product(G, X, S)
    for C in _sample_sets(G, rng, range(G.order), SAMPLES):
        CX = product(G, C, X)
        if len(product(G, CX, S)) > K * len(CX):
            raise Mismatch(f"|CXS| > K|CX| for C = {sorted(C)}")
    eq_identity = len(XS) * K.denominator == K.numerator * len(X)
    return {"group": G.name, "set_a": subset(G, A), "set_s": subset(G, S),
            "x": subset(G, X), "k": rational(K), "mode": mode,
            "verified_c_count": (1 << G.order) - 1 if mode == "exhaustive" else budget,
            "exhaustive": mode == "exhaustive", "equality_at_identity": eq_identity,
            "violations": [], "ok": eq_identity}


def _conv_gap(o, spec, G, config, payload, rng):
    A = _set(config, "A")
    inv_A = o.naive.naive_inverse(G, A)
    eps = 2 - Fraction(len(o.naive.naive_product(G, inv_A, A)), len(A))
    support = o.naive.naive_product(G, A, inv_A)
    f = o.naive.naive_autocorrelation(G, A)
    low = min(f[x] for x in support)
    gap, clean = low >= eps, all(not 0 < v < eps for v in f)
    if eps > 0 and not (gap and clean):
        raise Mismatch("the convolution gap fails")
    return {"group": G.name, "set_a": subset(G, A), "epsilon_star": rational(eps),
            "support": subset(G, support), "min_on_support": rational(low),
            "gap_holds": gap, "forbidden_interval_clean": clean,
            "hypothesis_vacuous": eps <= 0, "autocorrelation": [rational(v) for v in f]}


def _conv_smooth(o, spec, G, config, payload, rng):
    A, S = _set(config, "A"), _set(config, "S")
    f = o.naive.naive_autocorrelation(G, A)
    kernel = [Fraction(1, len(S)) if x in S else Fraction(0) for x in range(G.order)]
    F = o.naive.naive_convolve(G, kernel, o.naive.naive_convolve(G, kernel, f))
    out = {"group": G.name, "set_a": subset(G, A), "set_s": subset(G, S),
           "autocorrelation": [rational(v) for v in f],
           "smoothed": [rational(v) for v in F], "mass": rational(sum(F)),
           "threshold": None, "level_set": None}
    if config.get("threshold") is not None:
        t = Fraction(config["threshold"])
        out["threshold"] = rational(t)
        out["level_set"] = subset(G, [x for x in range(G.order) if F[x] > t])
    return out


def _finding_key(f):
    a, b = tuple(f["set_a"]["indices"]), tuple(f["set_b"]["indices"])
    return (len(a), len(b), a, b)


def _search(o, spec, G, config, payload, rng):
    n, strategy = G.order, config.get("strategy", "exhaustive")
    seed, budget = config.get("seed"), config.get("budget")
    if strategy == "random":
        draw = random.Random(seed)
        pairs = set()
        for _ in range(budget):
            a, b = draw.randrange(1, 1 << n), draw.randrange(1, 1 << n)
            pairs.add((frozenset(i for i in range(n) if a >> i & 1),
                       frozenset(i for i in range(n) if b >> i & 1)))
        found = [_kneser(G, o.naive, A, B) for A, B in pairs]
        findings = sorted((f for f in found if not f["holds"]), key=_finding_key)
        checked, exhausted = budget, False
    else:
        findings = []
        for stored in payload["findings"]:
            A = frozenset(stored["set_a"]["indices"])
            B = frozenset(stored["set_b"]["indices"])
            findings.append(_kneser(G, o.naive, A, B))
        if any(f["holds"] for f in findings):
            raise Mismatch("a reported Kneser failure holds")
        keys = [_finding_key(f) for f in findings]
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            raise Mismatch("findings are not sorted and distinct")
        want = o.expected["kneser_failures"].get(G.name)
        if want is None or len(findings) != want:
            raise Mismatch(f"{len(findings)} Kneser failures in {G.name}, stored count {want}")
        checked, exhausted = ((1 << n) - 1) ** 2, True
    return {"group": G.name, "strategy": strategy, "seed": seed, "budget": budget,
            "pairs_checked": checked, "exhausted": exhausted,
            "finding_count": len(findings),
            "findings": findings}


EXPECT = {
    "doubling": _doubling,
    "connectivity": _connectivity,
    "atoms": _atoms,
    "kneser": _kneser_cmd,
    "corollary-kn": _corollary,
    "theorem-main": _theorem_main,
    "petridis": _petridis,
    "conv-gap": _conv_gap,
    "conv-smooth": _conv_smooth,
    "search-kneser-failure": _search,
}


def _diff(path, want, got, out):
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(set(want) | set(got)):
            if key not in want or key not in got:
                out.append(f"{path}.{key}: present on one side only")
            else:
                _diff(f"{path}.{key}", want[key], got[key], out)
    elif isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        for i, (w, g) in enumerate(zip(want, got)):
            _diff(f"{path}[{i}]", w, g, out)
    elif type(want) is not type(got) or want != got:
        out.append(f"{path}: certificate has {got!r}, plain sets give {want!r}")


def check(oracle: Oracle, record: dict, sample_seed: str) -> list[str]:
    """Problems found in one certificate; [] when every claim holds."""
    try:
        command, config, payload = record["command"], record["config"], record["payload"]
        spec = config["group"]
        G = oracle.group(spec)
        rng = random.Random(sample_seed)
        want = EXPECT[command](oracle, spec, G, config, payload, rng)
    except Mismatch as exc:
        return [str(exc)]
    except (AttributeError, IndexError, KeyError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        return [f"unreadable certificate: {type(exc).__name__}: {exc}"]
    problems: list[str] = []
    _diff("payload", want, payload, problems)
    return problems
