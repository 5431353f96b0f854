"""Byte goldens of `specseq analyze` on the six presets, and of the commands
that list the presets and print models.

For each preset, `golden/analyze/<preset>.txt` holds the exit code and the
standard output of `specseq analyze <preset> --json <path>`, and
`golden/analyze/<preset>.json` holds the report it writes, with
`elapsed_s` set to 0 (the one field that varies from run to run).  For each
row `(argv, golden)` of `COMMANDS`, `golden/cli/<golden>.txt` holds the exit
code, the standard output and, after a `stderr:` line when there is any, the
standard error of `specseq <argv>`: the preset list, each preset's model
file, seeded `generate` models of every type, the `star-check` sweep and one
frame, `recursion` answers and refusals for S and C, and `decompose` on
three forms, the last of which it refuses.  For each
row of `MODEL_ROWS`, `golden/analyze-models/` holds the same for
`specseq analyze <file> --json <path>`, with and without `--quiet`, on a
model file written from its seed into a temporary directory: a mixed-lambda
model, a C-type model, an S-type model whose base is not hard Lefschetz,
and the largest model of acceptance criterion 2's S suite.  Each preset's
report is also written over the longer largest-S report, and must still
equal its golden.
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
from specseq.lefschetz import check_hard_lefschetz, generate_hlp_module, lefschetz_columns, zero_l_block
from specseq.modelfile import dump_model, from_module
from specseq.presets import PRESETS
from specseq.sampling import sample_base, sample_model
from specseq.verify import harmonic_basis_S, model_star_duality

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "analyze")
GOLDEN_CLI = os.path.join(os.path.dirname(GOLDEN), "cli")
GOLDEN_MODELS = os.path.join(os.path.dirname(GOLDEN), "analyze-models")
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
    + [
        (["star-check"], "star-check"),
        (["star-check", "--n", "1", "--s", "2"], "star-check-n1-s2"),
        (["recursion", "--betti", "1,0,1,1,0,1", "--s", "1", "--n", "2", "--structure", "S"], "recursion-S"),
        (["recursion", "--betti", "1,3,3,1", "--s", "1", "--structure", "C"], "recursion-C"),
        # Refused by the recheck of the list, and by a negative dimension.
        (
            ["recursion", "--betti", "1,0,1,1", "--s", "1", "--n", "1", "--structure", "S"],
            "recursion-S-refused",
        ),
        (["recursion", "--betti", "1,0,0", "--s", "1", "--structure", "C"], "recursion-C-refused"),
        (["decompose", "--n", "2", "2*e1^e2 + e3^e4"], "decompose-degree-2"),
        (["decompose", "--n", "2", "e1^e2^e3 - 1/2*e1^e3^e4"], "decompose-degree-3"),
        (["decompose", "--n", "2", "e1 + e1^e2"], "decompose-not-homogeneous"),
    ]
)


def write_mixed(path: str) -> None:
    """`specseq generate --seed 0 --type mixed`."""
    assert main(["generate", "--seed", "0", "--type", "mixed", "--out", path]) == 0


def write_c(path: str) -> None:
    """`specseq generate --seed 0 --type C`."""
    assert main(["generate", "--seed", "0", "--type", "C", "--out", path]) == 0


def write_no_hlp(path: str) -> None:
    """An S-type model whose base fails hard Lefschetz at k = 1: L is zeroed
    on H^1 of a generated module."""
    base = zero_l_block(generate_hlp_module(7, 2, (1, 1, 1)), 1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_model(from_module(base, 2, [1, 1], name="no-hlp")))


def write_largest(path: str) -> None:
    """The largest model of criterion 2's S suite by chain dimension, the
    first of them on a tie, named by its index as the benchmark names it."""
    rng = random.Random(STRUCTURE_SEEDS[0] + 2)
    suite = [sample_model(rng, "S") for _ in range(100)]
    size = [sum(c.dim(k) for k in range(c.max_degree + 1)) for c in suite]
    i = min(range(len(suite)), key=lambda i: (-size[i], i))
    c = suite[i]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_model(from_module(c.base, c.s, c.lambdas, name=f"S{i}")))


MODELS = {"mixed": write_mixed, "C": write_c, "no-hlp": write_no_hlp, "largest-S": write_largest}
# (model, extra arguments, golden): the golden's .txt holds the exit code
# and stdout, and the model's .json the report that both rows write.
MODEL_ROWS = [
    (model, extra, model + suffix)
    for model in MODELS
    for extra, suffix in (((), ""), (("--quiet",), "-quiet"))
]


def run(argv: list[str]) -> str:
    """The exit code and the standard output of `specseq <argv>`, then its
    standard error after a `stderr:` line when it wrote any."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}" + (f"stderr:\n{err.getvalue()}" if err.getvalue() else "")


def analyze(model: str, report: str, extra: tuple[str, ...] = ()) -> tuple[str, str]:
    """Exit code and stdout, and the JSON report with `elapsed_s` blanked."""
    stdout = run(["analyze", model, "--json", report, *extra])
    with open(report, encoding="utf-8") as fh:
        text, count = ELAPSED.subn('  "elapsed_s": 0', fh.read())
    assert count == 1
    return stdout, text


def analyze_model(model: str, extra: tuple[str, ...], tmp: str) -> tuple[str, str]:
    """`analyze` on the model file that `MODELS[model]` writes into `tmp`."""
    path = os.path.join(tmp, f"{model}.json")
    MODELS[model](path)
    return analyze(path, os.path.join(tmp, "report.json"), extra)


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


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_analyze_over_a_longer_report_matches_the_golden_bytes(preset, tmp_path):
    analyze_model("largest-S", (), str(tmp_path))
    report = tmp_path / "report.json"
    assert report.stat().st_size > os.path.getsize(os.path.join(GOLDEN, f"{preset}.json"))
    stdout, text = analyze(preset, str(report))
    with open(os.path.join(GOLDEN, f"{preset}.txt"), encoding="utf-8") as fh:
        assert stdout == fh.read()
    with open(os.path.join(GOLDEN, f"{preset}.json"), encoding="utf-8") as fh:
        assert text == fh.read()


@pytest.mark.parametrize("model, extra, golden", MODEL_ROWS, ids=[g for *_, g in MODEL_ROWS])
def test_analyze_on_model_files_matches_the_golden_bytes(model, extra, golden, tmp_path):
    stdout, report = analyze_model(model, extra, str(tmp_path))
    with open(os.path.join(GOLDEN_MODELS, f"{golden}.txt"), encoding="utf-8") as fh:
        assert stdout == fh.read()
    with open(os.path.join(GOLDEN_MODELS, f"{model}.json"), encoding="utf-8") as fh:
        assert report == fh.read()


@pytest.mark.parametrize("argv, golden", COMMANDS, ids=[golden for _, golden in COMMANDS])
def test_command_matches_the_golden_bytes(argv, golden):
    with open(os.path.join(GOLDEN_CLI, f"{golden}.txt"), encoding="utf-8") as fh:
        assert run(argv) == fh.read()


if __name__ == "__main__":
    import tempfile

    os.makedirs(GOLDEN, exist_ok=True)
    os.makedirs(GOLDEN_CLI, exist_ok=True)
    os.makedirs(GOLDEN_MODELS, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for preset in sorted(PRESETS):
            stdout, report = analyze(preset, os.path.join(tmp, "report.json"))
            for suffix, text in ((".txt", stdout), (".json", report)):
                with open(os.path.join(GOLDEN, preset + suffix), "w", encoding="utf-8") as fh:
                    fh.write(text)
            print(f"wrote {preset}", file=sys.stderr)
        for model, extra, golden in MODEL_ROWS:
            stdout, report = analyze_model(model, extra, tmp)
            for name, text in ((golden + ".txt", stdout), (model + ".json", report)):
                with open(os.path.join(GOLDEN_MODELS, name), "w", encoding="utf-8") as fh:
                    fh.write(text)
            print(f"wrote {golden}", file=sys.stderr)
    for argv, golden in COMMANDS:
        with open(os.path.join(GOLDEN_CLI, f"{golden}.txt"), "w", encoding="utf-8") as fh:
            fh.write(run(argv))
        print(f"wrote {golden}", file=sys.stderr)
    with open(GOLDEN_STRUCTURE, "w", encoding="utf-8") as fh:
        fh.write(structure_digest())
    print("wrote structure.sha256", file=sys.stderr)
