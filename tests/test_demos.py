import io
import runpy
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMO_DIR = ROOT / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_clean(script):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        runpy.run_path(str(script), run_name="__main__")
    assert buffer.getvalue().strip()


def test_the_readme_quick_start_prints_what_it_says():
    # The README's "Library quick start" is the first code a reader runs.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        exec(compile(code, "README.md", "exec"), {})
    assert buffer.getvalue().splitlines() == [
        "9/5",
        "single_right_coset 20 50",
        f"2 {tuple(range(20))}",
    ]
