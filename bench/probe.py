"""Set-up probe: a fresh interpreter made ready to issue certificates.

    python3 bench/probe.py GROUPS.json

Imports `smalldoubling.cli`, builds its parser and builds every group of the
workload once (explicit tables are validated), then prints one JSON line with
the time of each step.  The caller times the whole process start up to that
line as `setup_s`.
"""

import json
import sys
import time

t0 = time.perf_counter()
from smalldoubling import cli, groups  # noqa: E402

t1 = time.perf_counter()
cli.build_parser()
t2 = time.perf_counter()
with open(sys.argv[1]) as fh:
    specs = json.load(fh)
t3 = time.perf_counter()
for spec in specs:
    groups.from_spec(spec)
t4 = time.perf_counter()
print(json.dumps({
    "import_ms": (t1 - t0) * 1e3,
    "build_parser_ms": (t2 - t1) * 1e3,
    "group_build_ms": (t4 - t3) * 1e3,
}), flush=True)
