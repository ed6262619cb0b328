"""Certificate benchmark: issue certificates as a researcher does, recheck
them as a reader does, and check every claim against plain-set oracles.

    python3 bench/run.py --workload certify --seed 1 --seconds 24 --trace 0

Run from the repository root; the package is imported from `src/`.  One
caller works in a closed loop.  Each run:

1. builds the plan: one warm-up round plus a fixed number of timed rounds
   (--seconds over the workload's nominal time for issuing and rechecking
   one round), sets drawn from --seed;
2. starts an issue process and a recheck process, both fresh interpreters,
   and alternates them round by round, so that only one computes at a time
   (the machine has two CPUs) while both phases spread over the whole run;
3. between rounds, starts fresh interpreters to time set-up (`setup_s`);
4. checks every certificate with plain Python sets, outside the timed parts.

`certs_per_s` is the throughput of the whole timed issue phase, and each
p50 metric is the median certificate of a round, averaged over the timed
rounds.  Every round draws new sets, so no input is picked out by its time
(see README.md).

The last line of standard output is the result object; the line before it
holds machine facts, per-phase counts and a fixed reference-loop time, which
is reported beside the metrics and never applied to them.  With --trace 1 the
metrics are the per-layer ones (see tracing.py), averaged per traced round.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PROBES = 9  # timed set-up probes per run, spread over it, after one untimed probe
DEADLINE_S = 165  # every process still running this long after the start is killed


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    env["PYTHONHASHSEED"] = "0"  # str hashes, and so set order, repeat from run to run
    return env


class Watchdog:
    """Kills every process it watches once the run has taken too long."""

    def __init__(self, seconds: float):
        self.procs: list = []
        self.fired = False
        self.timer = threading.Timer(seconds, self._fire)
        self.timer.daemon = True
        self.timer.start()

    def _fire(self) -> None:
        self.fired = True
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()

    def watch(self, proc):
        self.procs.append(proc)
        if self.fired:
            proc.kill()
        return proc


def _probe(groups_file, watchdog, importtime=False) -> tuple[float, dict, str]:
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [str(BENCH / "probe.py"), str(groups_file)]
    t0 = time.perf_counter()
    proc = watchdog.watch(subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                                           stderr=subprocess.PIPE, text=True))
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        _, err = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or not line:
        raise BenchError(f"set-up probe failed: {err.strip()[-500:]}")
    return ready, json.loads(line), err


def _importtime_split(stderr: str) -> dict:
    """Cumulative import times (ms) from `python -X importtime`."""
    cumulative = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = line[len("import time:"):].split("|")
            if cum.strip().isdigit():
                cumulative[name.strip()] = int(cum) / 1e3
    numpy_ms = cumulative.get("numpy", 0.0)
    jsonschema_ms = cumulative.get("jsonschema", 0.0)
    package_ms = cumulative.get("smalldoubling", 0.0) + cumulative.get("smalldoubling.cli", 0.0)
    return {
        "setup.import_numpy_ms": numpy_ms,
        "setup.import_jsonschema_ms": jsonschema_ms,
        "setup.import_smalldoubling_ms": package_ms - numpy_ms - jsonschema_ms,
    }


class Worker:
    """A phase process (worker.py) driven one round at a time over pipes."""

    def __init__(self, mode, trace, log: Path, watchdog: Watchdog):
        self.mode = mode
        self.log = log
        with open(log, "w") as err:
            self.proc = watchdog.watch(subprocess.Popen(
                [sys.executable, str(BENCH / "worker.py"), mode, str(int(trace))],
                cwd=ROOT, env=_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=err, text=True,
            ))
        self._read()  # the "ready" line: imports are done

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            raise BenchError(f"{self.mode} phase ended early: {self.log.read_text()[-800:]}")
        return json.loads(line)

    def ask(self, message: dict) -> dict:
        try:
            self.proc.stdin.write(json.dumps(message) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError as exc:
            raise BenchError(f"{self.mode} phase ended early") from exc
        return self._read()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def reference_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: a yardstick for the machine."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0
        for i in range(1_000_000):
            x += i * i % 7
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def _check_round(oracle, r, ops, got, again, seed) -> tuple[list, list]:
    """Issue and recheck failures of one round, by the plain-set checks."""
    issue_fail, recheck_fail = [], []
    for i, op in enumerate(ops):
        if got[i]["error"]:
            why = [got[i]["error"]]
        else:
            why = checks.check(oracle, json.loads(got[i]["text"]), f"{seed}/{r}/{i}")
        if why:
            issue_fail.append((r, i, op["command"], why[:3]))
        if why or not again[i]["ok"]:
            recheck_fail.append((r, i, op["command"], why[:3] or [again[i]["error"]]))
    return issue_fail, recheck_fail


def _check_subgroups(oracle, plan, captured, issue_fail, recheck_fail) -> list[str]:
    """Compare the package's subgroup lists with plain sets; an operation on a
    group whose list differs fails too."""
    problems, bad = [], set()
    for key, lists in captured.items():
        found = oracle.package_subgroups_ok(json.loads(key), lists)
        if found:
            bad.add(key)
            problems += found
    for r, ops in enumerate(plan):
        for i, op in enumerate(ops):
            if json.dumps(op["config"]["group"], sort_keys=True) in bad:
                failure = (r, i, op["command"], ["package subgroup list differs"])
                issue_fail.append(failure)
                recheck_fail.append(failure)
    return problems


def _p50(phase) -> float:
    """The median certificate time (ms) of each timed round, averaged."""
    medians = []
    for ops in phase["rounds"][1:]:
        times = [op["ms"] for op in ops if op["ms"] is not None]
        if times:
            medians.append(statistics.median(times))
    return statistics.mean(medians)


def _end_to_end(issued, rechecked, probes, entries) -> dict:
    timed = issued["round_ms"][1:]
    return {
        "certs_per_s": {"value": entries * len(timed) / (sum(timed) / 1e3), "unit": "1/s"},
        "issue_p50_ms": {"value": _p50(issued), "unit": "ms"},
        "recheck_p50_ms": {"value": _p50(rechecked), "unit": "ms"},
        "setup_s": {"value": statistics.median(p[0] for p in probes), "unit": "s"},
        "peak_rss_mb": {"value": issued["peak_rss_mb"], "unit": "MB"},
    }


def _per_layer(issued, rechecked, probes, importtime) -> dict:
    traced = [r for r, t in enumerate(issued["traced"]) if t]
    untraced = [r for r, t in enumerate(issued["traced"]) if r > 0 and not t]
    totals: dict = {}
    for phase in (issued, rechecked):
        for key, value in phase["layers"].items():
            totals[key] = totals.get(key, 0) + value

    def round_ms(rounds):
        return sum(p["round_ms"][r] for p in (issued, rechecked) for r in rounds) / len(rounds)

    plain_ms, traced_ms = round_ms(untraced), round_ms(traced)
    known = {
        "setup.import_ms": statistics.median(p[1]["import_ms"] for p in probes),
        "cli.build_parser_ms": statistics.median(p[1]["build_parser_ms"] for p in probes),
        "setup.group_build_ms": statistics.median(p[1]["group_build_ms"] for p in probes),
        **_importtime_split(importtime),
        "trace.overhead_ms": traced_ms - plain_ms,
        "trace.overhead_pct": (traced_ms - plain_ms) / plain_ms * 100,
    }
    return {
        name: {"value": known[name] if name in known else totals.get(name, 0) / len(traced),
               "unit": unit}
        for name, unit, _ in tracing.per_layer_catalogue()
    }


def _probe_rounds(rounds: int) -> list[int]:
    """After which round pair each timed set-up probe runs: spread over the run."""
    return [k * rounds // (PROBES - 1) for k in range(PROBES)]


def _phases(plan, args, oracle, groups_file, out, watchdog):
    """Alternate issue and recheck round by round.  Between rounds the
    certificates just issued are checked and set-up is probed, which also
    spreads each phase's samples over a longer stretch of time."""
    phases = {mode: {"rounds": [], "round_ms": [], "traced": []} for mode in ("issue", "recheck")}
    probes, issue_fail, recheck_fail = [], [], []
    schedule = _probe_rounds(len(plan) - 1)
    workers = []
    try:
        issuer = Worker("issue", args.trace, out / "issue.log", watchdog)
        workers.append(issuer)
        checker = Worker("recheck", args.trace, out / "recheck.log", watchdog)
        workers.append(checker)
        for r, ops in enumerate(plan):
            got = issuer.ask({"round": r, "ops": ops})
            again = checker.ask({"round": r, "ops": [{"text": op["text"]} for op in got["ops"]]})
            for mode, reply in (("issue", got), ("recheck", again)):
                for key in ("round_ms", "traced"):
                    phases[mode][key].append(reply[key])
                phases[mode]["rounds"].append(reply["ops"])
            failed = _check_round(oracle, r, ops, got["ops"], again["ops"], args.seed)
            issue_fail += failed[0]
            recheck_fail += failed[1]
            probes += [_probe(groups_file, watchdog)[:2] for _ in range(schedule.count(r))]
        for mode, worker in (("issue", issuer), ("recheck", checker)):
            phases[mode].update(worker.ask({"end": True}))
    finally:
        for worker in workers:
            worker.stop()
    return phases["issue"], phases["recheck"], probes, issue_fail, recheck_fail


def run(args) -> dict:
    started = time.monotonic()
    out = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    oracle = checks.Oracle(ROOT)
    rounds = workloads.timed_rounds(args.workload, args.seconds)
    if args.trace:
        rounds = max(rounds, 2)  # at least one traced and one untraced round
    try:
        plan = workloads.build_plan(args.workload, args.seed, rounds, oracle)
    except checks.Mismatch as exc:
        raise BenchError(f"plain-set oracle disagrees with its closed form: {exc}") from exc
    groups_file = out / "groups.json"
    groups_file.write_text(json.dumps(workloads.group_specs(args.workload)))

    watchdog = Watchdog(DEADLINE_S - (time.monotonic() - started))
    try:
        _probe(groups_file, watchdog)  # untimed: fills the file cache and .pyc files
        importtime = _probe(groups_file, watchdog, importtime=True)[2] if args.trace else ""
        issued, rechecked, probes, issue_fail, recheck_fail = _phases(
            plan, args, oracle, groups_file, out, watchdog)
    finally:
        watchdog.timer.cancel()
    if watchdog.fired:
        raise BenchError("the run went past its time limit")
    if args.trace:
        spans = {mode: phase.pop("spans") for mode, phase in (("issue", issued), ("recheck", rechecked))}
        (out / "spans.json").write_text(json.dumps(spans))

    problems = _check_subgroups(oracle, plan, issued["subgroups"], issue_fail, recheck_fail)
    entries, ops = len(plan[0]), sum(len(r) for r in plan)
    if args.trace:
        metrics = _per_layer(issued, rechecked, probes, importtime)
    else:
        metrics = _end_to_end(issued, rechecked, probes, entries)
    facts = {
        "workload": args.workload, "seed": args.seed, "trace": bool(args.trace),
        "rounds": {"warmup": 1, "timed": rounds, "ops_per_round": entries},
        "issue": {"attempted": ops, "failed": len(issue_fail)},
        "recheck": {"attempted": ops, "failed": len(recheck_fail)},
        "machine": {"nproc": os.cpu_count(), "python": issued["python"],
                    "numpy": issued["numpy"], "platform": platform.platform(),
                    "reference_loop_ms": reference_loop_ms()},
        "problems": problems,
        "failures": (issue_fail + recheck_fail)[:10],
    }
    result = {
        "correct": not problems,
        "attempted": 2 * ops,
        "failed": len(issue_fail) + len(recheck_fail),
        "metrics": metrics,
    }
    (out / "result.json").write_text(json.dumps({"facts": facts, "result": result}, indent=2))
    for mode, phase in (("issue", issued), ("recheck", rechecked)):
        (out / f"{mode}.json").write_text(json.dumps(phase))
    print(json.dumps({"facts": facts}))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in ("src/smalldoubling/__init__.py", "tests/oracles.py"):
        if not (ROOT / needed).is_file():
            print(f"bench: {needed} not found under {ROOT}; run from a full checkout",
                  file=sys.stderr)
            return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
