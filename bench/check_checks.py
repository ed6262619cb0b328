"""Check of the checks: altered certificates must be counted as failed.

    python3 bench/check_checks.py

Issues one round of each workload with a fixed seed, then alters one field
of each payload, taking in turn an element index, a rational, a boolean, or
a rational whose denominator is set to zero (the field itself is picked with
the same seed).  Every altered record must fail both the independent plain-set
check and `certificates.recheck`, and every unaltered record must pass both.
Prints one line per record and exits 0 only if all of that holds.
"""

from __future__ import annotations

import copy
import json
import random
import re
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import plain  # noqa: E402
import workloads  # noqa: E402
from worker import issue  # noqa: E402

RATIONAL = re.compile(r"^-?\d+/\d+$")
KINDS = ("index", "rational", "boolean", "zero_denominator")
SEED = 1


def leaves(value, path=()):
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from leaves(sub, path + (key,))
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            yield from leaves(sub, path + (i,))
    else:
        yield path, value


def candidates(payload, kind):
    out = []
    for path, value in leaves(payload):
        is_index = (isinstance(value, int) and not isinstance(value, bool) and len(path) > 1
                    and path[-2] in ("indices", "representatives"))
        is_rational = isinstance(value, str) and RATIONAL.match(value)
        if (kind == "index" and is_index) or (kind == "boolean" and isinstance(value, bool)) or (
            kind in ("rational", "zero_denominator") and is_rational
        ):
            out.append((path, value))
    return out


def altered_value(kind, value, order):
    if kind == "index":
        return (value + 1) % order
    if kind == "boolean":
        return not value
    num, den = value.split("/")
    return f"{int(num) + 1}/{den}" if kind == "rational" else f"{num}/0"


def alter(record, i, rng):
    """A copy of `record` with one payload field altered: (copy, kind, path)."""
    payload = record["payload"]
    for step in range(len(KINDS)):
        kind = KINDS[(i + step) % len(KINDS)]
        found = candidates(payload, kind)
        if found:
            break
    path, value = rng.choice(found)
    tampered = copy.deepcopy(record)
    target = tampered["payload"]
    for key in path[:-1]:
        target = target[key]
    order = plain.build(record["config"]["group"]).order
    target[path[-1]] = altered_value(kind, value, order)
    return tampered, kind, ".".join(map(str, path))


def verdict(oracle, certificates, record, sample_seed):
    """(plain-set check failed?, recheck failed?) for one record."""
    problems = checks.check(oracle, record, sample_seed)
    try:
        recheck_failed = not certificates.recheck(json.loads(json.dumps(record))).ok
    except Exception:  # a refused record counts as a failed recheck
        recheck_failed = True
    return bool(problems), recheck_failed


def main() -> int:
    from smalldoubling import certificates

    oracle = checks.Oracle(ROOT)
    rng = random.Random(SEED)
    bad = total = 0
    for name in workloads.WORKLOADS:
        ops = workloads.build_plan(name, SEED, 0, oracle)[0]
        for i, op in enumerate(ops):
            done = issue(op, certificates)
            if done["error"]:
                print(f"{name}[{i}] {op['command']}: issue failed: {done['error']}")
                bad += 1
                continue
            record = json.loads(done["text"])
            tampered, kind, path = alter(record, i, rng)
            clean = verdict(oracle, certificates, record, f"cc/{i}")
            dirty = verdict(oracle, certificates, tampered, f"cc/{i}")
            ok = clean == (False, False) and dirty == (True, True)
            total += 1
            bad += not ok
            print(f"{'ok ' if ok else 'BAD'} {name}[{i}] {op['command']:21s} unaltered "
                  f"check={'fail' if clean[0] else 'pass'} recheck={'fail' if clean[1] else 'pass'}"
                  f" | {kind:16s} payload.{path}: check={'fail' if dirty[0] else 'pass'} "
                  f"recheck={'fail' if dirty[1] else 'pass'}")
    print(f"{total - bad} of {total} records behave: every altered one fails, "
          f"every unaltered one passes" if not bad else f"{bad} of {total} records misbehave")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
