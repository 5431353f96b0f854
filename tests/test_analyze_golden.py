"""Byte goldens of `specseq analyze` on the six presets, and of the commands
that list the presets and print models.

For each preset, `golden/analyze/<preset>.txt` holds the exit code and the
standard output of `specseq analyze <preset> --json <path>`, and
`golden/analyze/<preset>.json` holds the report it writes, with
`elapsed_s` set to 0 (the one field that varies from run to run).  For each
row `(argv, golden)` of `COMMANDS`, `golden/cli/<golden>.txt` holds the exit
code and the standard output of `specseq <argv>`: the preset list, each
preset's model file and seeded `generate` models of every type.
`golden/structure.sha256` holds one sha256 over the Lefschetz structure
(`check_hard_lefschetz` and `lefschetz_columns`), the `harmonic_basis_S`
elements and the `model_star_duality` report of the 100 S-type models that
acceptance criterion 2 draws, at each seed in `STRUCTURE_SEEDS`, and over
the Lefschetz structure of 200 `sampling.sample_base` draws, 40 of them not
hard Lefschetz, failing at every k from 1 to 4.  A change that alters any
of them by one byte fails here.  A change meant to alter them regenerates
them from the root of the checkout with

    PYTHONPATH=src python tests/test_analyze_golden.py

and the diff of `tests/golden/` shows what moved.
"""

import contextlib
import hashlib
import io
import os
import random
import re
import sys

import pytest

from specseq.cli import main
from specseq.lefschetz import check_hard_lefschetz, lefschetz_columns
from specseq.presets import PRESETS
from specseq.sampling import sample_base, sample_model
from specseq.verify import harmonic_basis_S, model_star_duality

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "analyze")
GOLDEN_CLI = os.path.join(os.path.dirname(GOLDEN), "cli")
GOLDEN_STRUCTURE = os.path.join(os.path.dirname(GOLDEN), "structure.sha256")
ELAPSED = re.compile(r'^  "elapsed_s": \S+$', re.MULTILINE)
# The acceptance seed and a held-out one; each draws its S suite from
# random.Random(seed + 2), as acceptance criterion 2 does.
STRUCTURE_SEEDS = (20260823, 20260901)

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


def structure_record(module) -> tuple:
    """The report and the integer bases, each column as its sorted items."""
    columns = lefschetz_columns(module)
    return check_hard_lefschetz(module), *(
        [[sorted(v.items()) for v in layer] for layer in by_p]
        for by_p in (columns.primitive, columns.kernel, columns.star)
    )


def structure_digest() -> str:
    h = hashlib.sha256()
    for seed in STRUCTURE_SEEDS:
        rng = random.Random(seed + 2)
        for _ in range(100):
            c = sample_model(rng, "S")
            record = structure_record(c.base), harmonic_basis_S(c), model_star_duality(c)
            h.update(repr(record).encode())
    rng = random.Random(STRUCTURE_SEEDS[0])
    for _ in range(200):
        h.update(repr(structure_record(sample_base(rng))).encode())
    return h.hexdigest() + "\n"


def test_structure_matches_the_golden_digest():
    with open(GOLDEN_STRUCTURE, encoding="utf-8") as fh:
        assert structure_digest() == fh.read()


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
    with open(GOLDEN_STRUCTURE, "w", encoding="utf-8") as fh:
        fh.write(structure_digest())
    print("wrote structure.sha256", file=sys.stderr)
