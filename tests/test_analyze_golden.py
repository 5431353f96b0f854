"""Byte goldens of `specseq analyze` on the six presets, and of the commands
that list the presets and print models.

For each preset, `golden/analyze/<preset>.txt` holds the exit code and the
standard output of `specseq analyze <preset> --json <path>`, and
`golden/analyze/<preset>.json` holds the report it writes, with
`elapsed_s` set to 0 (the one field that varies from run to run).  For each
row `(argv, golden)` of `COMMANDS`, `golden/cli/<golden>.txt` holds the exit
code and the standard output of `specseq <argv>`: the preset list, each
preset's model file and seeded `generate` models of every type.  A change
that alters any of them by one byte fails here.  A change meant to alter
them regenerates them from the root of the checkout with

    PYTHONPATH=src python tests/test_analyze_golden.py

and the diff of `tests/golden/` shows what moved.
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
GOLDEN_CLI = os.path.join(os.path.dirname(GOLDEN), "cli")
ELAPSED = re.compile(r'^  "elapsed_s": \S+$', re.MULTILINE)

COMMANDS = (
    [(["presets"], "presets")]
    + [(["presets", name], f"presets-{name}") for name in sorted(PRESETS)]
    + [
        (["generate", "--seed", str(seed), "--type", kind], f"generate-{seed}-{kind}")
        for seed in range(3)
        for kind in ("S", "C", "mixed")
    ]
)


def run(argv: list[str]) -> str:
    """The exit code and the standard output of `specseq <argv>`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}"


def analyze(preset: str, report: str) -> tuple[str, str]:
    """Exit code and stdout, and the JSON report with `elapsed_s` blanked."""
    stdout = run(["analyze", preset, "--json", report])
    with open(report, encoding="utf-8") as fh:
        text, count = ELAPSED.subn('  "elapsed_s": 0', fh.read())
    assert count == 1
    return stdout, text


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_analyze_matches_the_golden_bytes(preset, tmp_path):
    stdout, report = analyze(preset, str(tmp_path / "report.json"))
    with open(os.path.join(GOLDEN, f"{preset}.txt"), encoding="utf-8") as fh:
        assert stdout == fh.read()
    with open(os.path.join(GOLDEN, f"{preset}.json"), encoding="utf-8") as fh:
        assert report == fh.read()


@pytest.mark.parametrize("argv, golden", COMMANDS, ids=[golden for _, golden in COMMANDS])
def test_command_matches_the_golden_bytes(argv, golden):
    with open(os.path.join(GOLDEN_CLI, f"{golden}.txt"), encoding="utf-8") as fh:
        assert run(argv) == fh.read()


if __name__ == "__main__":
    import tempfile

    os.makedirs(GOLDEN, exist_ok=True)
    os.makedirs(GOLDEN_CLI, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for preset in sorted(PRESETS):
            stdout, report = analyze(preset, os.path.join(tmp, "report.json"))
            for suffix, text in ((".txt", stdout), (".json", report)):
                with open(os.path.join(GOLDEN, preset + suffix), "w", encoding="utf-8") as fh:
                    fh.write(text)
            print(f"wrote {preset}", file=sys.stderr)
    for argv, golden in COMMANDS:
        with open(os.path.join(GOLDEN_CLI, f"{golden}.txt"), "w", encoding="utf-8") as fh:
            fh.write(run(argv))
        print(f"wrote {golden}", file=sys.stderr)
