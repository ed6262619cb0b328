"""The benchmark's tamper check as a standing test.

`bench/check_checks.py` issues one round of every benchmark workload, alters
one payload field of each record, and exits 0 only if every altered record
fails both the plain-set check and `recheck` while every unaltered one
passes both.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_altered_record_is_caught():
    done = subprocess.run(
        [sys.executable, "bench/check_checks.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    last = done.stdout.strip().splitlines()[-1]
    m = re.fullmatch(r"(\d+) of (\d+) records behave: .*", last)
    assert m is not None, last
    assert m.group(1) == m.group(2)
