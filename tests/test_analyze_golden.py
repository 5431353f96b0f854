"""Byte goldens of `specseq analyze` on the six presets.

For each preset, `golden/analyze/<preset>.txt` holds the exit code and the
standard output of `specseq analyze <preset> --json <path>`, and
`golden/analyze/<preset>.json` holds the report it writes, with
`elapsed_s` set to 0 (the one field that varies from run to run).  A change
that alters either by one byte fails here.  A change meant to alter them
regenerates them from the root of the checkout with

    PYTHONPATH=src python tests/test_analyze_golden.py

and the diff of `tests/golden/analyze/` shows what moved.
"""

import contextlib
import io
import os
import re
import sys

import pytest

from specseq.cli import main
from specseq.presets import PRESETS

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "analyze")
ELAPSED = re.compile(r'^  "elapsed_s": \S+$', re.MULTILINE)


def analyze(preset: str, report: str) -> tuple[str, str]:
    """Exit code and stdout, and the JSON report with `elapsed_s` blanked."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["analyze", preset, "--json", report])
    with open(report, encoding="utf-8") as fh:
        text, count = ELAPSED.subn('  "elapsed_s": 0', fh.read())
    assert count == 1
    return f"exit {code}\n{out.getvalue()}", text


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_analyze_matches_the_golden_bytes(preset, tmp_path):
    stdout, report = analyze(preset, str(tmp_path / "report.json"))
    with open(os.path.join(GOLDEN, f"{preset}.txt"), encoding="utf-8") as fh:
        assert stdout == fh.read()
    with open(os.path.join(GOLDEN, f"{preset}.json"), encoding="utf-8") as fh:
        assert report == fh.read()


if __name__ == "__main__":
    import tempfile

    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for preset in sorted(PRESETS):
            stdout, report = analyze(preset, os.path.join(tmp, "report.json"))
            for suffix, text in ((".txt", stdout), (".json", report)):
                with open(os.path.join(GOLDEN, preset + suffix), "w", encoding="utf-8") as fh:
                    fh.write(text)
            print(f"wrote {preset}", file=sys.stderr)
