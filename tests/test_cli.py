import argparse
import json
import os
import re
import stat
import subprocess
import sys
from fractions import Fraction

import pytest

import exterior_oracle as oracle
from specseq import cli, engine, invariant, lefschetz, linalg, verify
from specseq.cli import main, parse_form, format_form
from specseq.exterior import ModelFrame, Multivector, lefschetz_L, primitive_decompose
from specseq.modelfile import MAX_FILE_BYTES, dump_model, to_complex
from specseq.presets import PRESETS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_preset_pass(capsys):
    code, out, _ = run(capsys, "analyze", "hopf-s3", "--quiet")
    assert code == 0
    assert "mainS: pass" in out
    assert "E2: pass" in out


def test_analyze_c_type(capsys):
    code, out, _ = run(capsys, "analyze", "torus-t3", "--quiet")
    assert code == 0
    assert "mainC: pass" in out


def test_analyze_unknown_model_exits_2(capsys):
    code, _, err = run(capsys, "analyze", "definitely-missing.json")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "content, named",
    [
        # json.loads raises RecursionError, not ValueError, on deep nesting.
        (b"[" * 100000, "not valid JSON: maximum recursion depth exceeded"),
        # Reading the file raises UnicodeDecodeError before any parsing.
        (b"\xff\xfe{}", "is not UTF-8 text"),
    ],
)
def test_analyze_malformed_file_exits_2_without_a_traceback(tmp_path, capsys, content, named):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 2 and out == ""
    [line] = err.splitlines()
    assert line.startswith("error: ") and named in line


def test_analyze_reads_a_file_up_to_the_byte_limit(tmp_path, capsys):
    text = dump_model(PRESETS["hopf-s3"])
    at_limit = tmp_path / "at-limit.json"
    at_limit.write_text(text + " " * (MAX_FILE_BYTES - len(text)))
    assert at_limit.stat().st_size == MAX_FILE_BYTES
    code, out, _ = run(capsys, "analyze", str(at_limit), "--quiet")
    assert code == 0 and "mainS: pass" in out
    past = tmp_path / "past-limit.json"
    past.write_text(text + " " * (MAX_FILE_BYTES + 1 - len(text)))
    code, out, err = run(capsys, "analyze", str(past))
    assert code == 2 and out == ""
    assert err == f"error: {past} is larger than the limit of {MAX_FILE_BYTES} bytes\n"


def test_analyze_invalid_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 1, "s": 1, "lambdas": ["1"], "dims": [1, 0], "L": []}')
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert "dims" in err


@pytest.mark.parametrize(
    "fields, named",
    [
        ({"n": True}, "n:"),
        ({"s": True}, "s:"),
        ({"dims": [True, 0, 1]}, "dims:"),
        ({"n": 0, "s": 30, "lambdas": ["1"] * 30, "dims": [1], "L": [[]]}, "s, dims:"),
        ({"n": 0, "s": 11, "lambdas": ["1"] * 11, "dims": [0], "L": [[]]}, "s, dims:"),
        ({"lambdas": ["1e100000"]}, "lambdas[0]:"),
        ({"L": [[["1/18446744073709551616"]], [], []]}, "L[0][0][0]:"),
        ([], "top level"),
        ({"lambdas": "1"}, "lambdas:"),
        ({"lambdas": ["1", "1"]}, "lambdas:"),
        ({"L": {}}, "L:"),
        ({"L": [[["1"]], []]}, "L:"),
        ({"L": [[["1", "0"]], [], []]}, "L[0][0]:"),
        ({"name": 1}, "name"),
        ({"description": ["x"]}, "description"),
    ],
)
def test_analyze_rejects_ill_typed_or_oversized_file(tmp_path, capsys, fields, named):
    model = {"n": 1, "s": 1, "lambdas": ["1"], "dims": [1, 0, 1], "L": [[["1"]], [], []]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**model, **fields} if isinstance(fields, dict) else fields))
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert named in err


@pytest.mark.parametrize(
    "labels",
    [[["1"], [], ["omega"]], "not a list", [[1], [2]]],
    ids=["well-formed", "not-a-list", "not-strings"],
)
def test_a_labels_key_is_ignored_like_any_unknown_key(tmp_path, capsys, labels):
    text = dump_model(PRESETS["hopf-s3"])
    plain = tmp_path / "plain.json"
    plain.write_text(text)
    labelled = tmp_path / "labelled.json"
    labelled.write_text(json.dumps({**json.loads(text), "labels": labels}))
    assert run(capsys, "analyze", str(labelled)) == run(capsys, "analyze", str(plain))


def _mainS_off_by_one(monkeypatch):
    """mainS predicts one class too many in degree 0."""
    fn = verify._mainS_dims
    monkeypatch.setattr(verify, "_mainS_dims", lambda *a: (fn(*a)[0] + 1, *fn(*a)[1:]))


def _stable_at_page_5(monkeypatch):
    """The run to convergence reports page 5 as the first stable one."""
    fn = invariant.run_to_convergence
    monkeypatch.setattr(invariant, "run_to_convergence", lambda fc: (fn(fc)[0], 5))


@pytest.mark.parametrize(
    "doctor, witnesses",
    [
        (
            _mainS_off_by_one,
            [
                "E_infinity total in degree 0: expected 2, got 1",
                "direct cohomology in degree 0: expected 2, got 1",
            ],
        ),
        (_stable_at_page_5, ["stable page: expected <= 3, got 5"]),
    ],
    ids=["mainS-off-by-one", "stable-at-page-5"],
)
def test_analyze_prints_a_failed_verdict_and_exits_1(capsys, monkeypatch, tmp_path, doctor, witnesses):
    doctor(monkeypatch)
    report = tmp_path / "report.json"
    code, out, err = run(capsys, "analyze", "hopf-s3", "--quiet", "--json", str(report))
    assert (code, err) == (1, "")
    assert out.splitlines() == ["E2: pass", "mainS: FAIL " + "; ".join(witnesses), "star-duality: pass"]
    verdicts = {r["theorem"]: r for r in json.loads(report.read_text())["verifications"]}
    assert verdicts["mainS"] == {
        "theorem": "mainS",
        "passed": False,
        "applicable": True,
        "witnesses": witnesses,
        "hypothesis_violation": None,
    }
    assert verdicts["E2"]["passed"] and verdicts["star-duality"]["passed"]


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (
            ("generate", "--seed", "0", "--s", "2", "--lambdas", "1"),
            2,
            "",
            "error: --lambdas must list 2 rationals\n",
        ),
        (("decompose", "--n", "1", ""), 2, "", "error: empty form\n"),
        # `format_form` prints a coefficient -1 as a minus sign.
        (
            ("decompose", "--n", "1", "-e1"),
            0,
            "form of degree 1 on R^2:\n  L^0 applied to primitive part (degree 1): -e1\n",
            "",
        ),
    ],
    ids=["generate-lambdas-count", "decompose-empty-form", "decompose-minus-one"],
)
def test_generate_and_decompose_edges(capsys, argv, code, out, err):
    assert run(capsys, *argv) == (code, out, err)


def _run_whole(argv):
    """Run `argv` through the parser built with every subcommand."""
    args = cli.build_parser().parse_args(argv)
    return args.func(args)


def _outcome(capsys, run_argv, argv):
    """Exit code, stdout and stderr of `run_argv(argv)`."""
    try:
        code = run_argv(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Per subcommand: a missing required argument (or, where none is required, a
# bad value) and an unrecognised option, parsed by the subcommand and by the
# root parser after it.
_SUBCOMMAND_ERRORS = {
    "analyze": (("analyze",), ("analyze", "--bogus"), ("analyze", "hopf-s3", "--bogus")),
    "generate": (("generate",), ("generate", "--seed", "1", "--bogus")),
    "recursion": (("recursion", "--s", "1"), ("recursion", "--bogus")),
    "star-check": (("star-check", "--n", "x"), ("star-check", "--bogus")),
    "presets": (("presets", "s5", "extra"), ("presets", "--bogus")),
    "decompose": (("decompose",), ("decompose", "--n", "1", "e1", "--bogus")),
}


# Command lines at the edge of the subcommand's own parser: arguments left
# over, an option only the root parser knows, '--', an abbreviated option and
# a form read through the custom negative-number matcher.
_EDGES = (
    ("analyze", "hopf-s3", "extra"),
    ("analyze", "hopf-s3", "--version"),
    ("analyze", "--", "hopf-s3", "x"),
    ("analyze", "--js", "PATH", "hopf-s3"),
    ("decompose", "--n", "1", "-1/60"),
)


@pytest.mark.parametrize(
    "argv",
    [(), ("-h",), ("--version",), ("bogus",), ("--version", "analyze")]
    + [(name, "-h") for name in _SUBCOMMAND_ERRORS]
    + [argv for errors in _SUBCOMMAND_ERRORS.values() for argv in errors]
    + list(_EDGES),
)
def test_main_prints_what_the_whole_parser_prints(capsys, monkeypatch, tmp_path, argv):
    # `main` builds only the parser of the subcommand it is given, and the
    # whole parser when that one leaves arguments over; its help, usage,
    # error text and exit code are those of the parser built whole.
    monkeypatch.chdir(tmp_path)  # where `--js PATH` writes its report
    whole = _outcome(capsys, _run_whole, list(argv))
    assert _outcome(capsys, main, list(argv)) == whole
    assert whole[0] in (0, 2)


def test_analyze_computes_the_sequence_once(monkeypatch, capsys):
    # The work is counted, not the calls that reach it: filtered complexes
    # built, reductions of each d_k and spectral sequences run.  Every
    # binding of each name is wrapped, and each real call counts once.
    work = {}

    def count(name):
        work[name] = work.get(name, 0) + 1

    monkeypatch.setattr(
        engine.FilteredComplex,
        "__post_init__",
        lambda fc, _fn=engine.FilteredComplex.__post_init__: count("FilteredComplex") or _fn(fc),
    )
    reduced = []
    for module in (engine, verify, lefschetz):
        monkeypatch.setattr(
            module,
            "reduce_columns",
            lambda cols, *a, _fn=module.reduce_columns, _m=module, **kw: reduced.append(
                (_m, cols, kw)
            )
            or _fn(cols, *a, **kw),
        )
    # No page is computed outside the one run to convergence, and no
    # Lefschetz piece is decomposed or powered.
    names = (
        "run_to_convergence",
        "compute_page",
        "check_hard_lefschetz",
        "lefschetz_decompose_class",
    )
    targets = [
        (module, name)
        for module in (cli, verify, invariant, lefschetz)
        for name in names
        if hasattr(module, name)
    ]
    # The Lefschetz structure and star duality work on integer columns: no
    # dense kernel, inverse, product, canonical subspace or rref quotient.
    targets += [
        (module, name)
        for module in (verify, lefschetz, linalg, invariant)
        for name in ("inverse", "kernel_basis", "subspace_sum", "quotient", "image_basis")
        if hasattr(module, name)
    ]
    calls = {}
    for module, name in targets:

        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    dense = []
    monkeypatch.setattr(
        linalg.Subspace,
        "span",
        staticmethod(lambda *a, _fn=linalg.Subspace.span: dense.append("span") or _fn(*a)),
    )
    monkeypatch.setattr(
        linalg.Matrix,
        "__matmul__",
        lambda a, b, _fn=linalg.Matrix.__matmul__: dense.append("matmul") or _fn(a, b),
    )
    built = []
    monkeypatch.setattr(cli, "to_complex", lambda mf, _fn=cli.to_complex: built.append(_fn(mf)) or built[-1])
    # Only the parser of `analyze` is built: every parser built is recorded.
    parsers = []
    monkeypatch.setattr(
        argparse.ArgumentParser,
        "__init__",
        lambda self, *a, _fn=argparse.ArgumentParser.__init__, **kw: parsers.append(self)
        or _fn(self, *a, **kw),
    )
    # The complex builds the groups of cocycles that star duality reads as
    # chains: part A on the primitive classes, part B on the Ker L classes
    # and the star images on the images L^(n-p) beta, each an integer column
    # of `lefschetz_columns`.  The column a chain is built on names its group.
    chains = []
    monkeypatch.setattr(
        invariant,
        "_integer_chain",
        lambda c, form, p, h, _fn=invariant._integer_chain: chains.append((h, _fn(c, form, p, h)))
        or chains[-1][1],
    )
    for preset, hlp_checks in (("hopf-s3", 4), ("s2xs3", 4), ("torus-t3", 0)):
        for log in (work, reduced, calls, dense, built, parsers, chains):
            log.clear()
        code, _, _ = run(capsys, "analyze", preset, "--quiet")
        assert code == 0
        [c] = built
        degrees = c.max_degree + 1
        assert work == {"FilteredComplex": 1}
        # Each d_k is reduced once, by the engine, and direct cohomology
        # counts the lows of that reduction.
        assert [sum(cols is d for _, cols, _ in reduced) for d in c.integer_d] == [1] * degrees
        # The boundaries of degree k are the V columns of the reduced d_k at
        # the lows of the reduced d_{k-1}, the engine's objects, not copies.
        fc = c.filtered_complex
        for k, (_, V, _) in enumerate(fc.reductions):
            lows_below = fc.reductions[k - 1][2] if k else {}
            assert fc.boundaries[k].keys() == lows_below.keys()
            assert all(fc.boundaries[k][low] is V[low] for low in lows_below)
        assert calls.pop("check_hard_lefschetz", 0) <= hlp_checks
        assert calls == {"run_to_convergence": 1}
        assert dense == []
        # `build_model` scatters the complex's integer columns itself and the
        # engine takes them over: the one dense view of the d_k, the
        # engine's, is never built, so none is converted back to columns.
        assert "d" not in vars(c.filtered_complex)
        [parser] = parsers
        assert parser.prog == "specseq analyze"
        assert not any(isinstance(a, argparse._SubParsersAction) for a in parser._actions)
        star_reductions = [(cols, kw) for m, cols, kw in reduced if m is verify]
        assert bool(star_reductions) == c.is_s_type()
        columns = lefschetz.lefschetz_columns(c.base)
        groups = {"A": columns.primitive, "B": columns.kernel, "images": columns.star}
        group_of = {}  # id of a chain -> its group and its degree
        for h, (k, v) in chains:
            [name] = [
                name
                for name, by_p in groups.items()
                if any(h is x for layer in by_p for x in layer)
            ]
            group_of[id(v)] = name, k
        handed_a = {key: 0 for key, (name, _) in group_of.items() if name == "A"}
        for cols, kw in star_reductions:
            assert kw["with_v"] is False
            # Each call is handed chains of one group and one degree k only.
            assert len({group_of[id(col)] for col in cols}) <= 1
            for col in cols:
                if id(col) in handed_a:
                    handed_a[id(col)] += 1
            # Its pivots hold the boundaries of degree k, the engine's V
            # columns themselves.
            candidates = [group_of[id(cols[0])][1]] if cols else range(degrees)
            assert any(
                all(kw["pivots"].get(low) is b for low, b in fc.boundaries[k].items())
                for k in candidates
            )
        # Part A is reduced once per degree: each of its columns is handed to
        # exactly one call.
        assert bool(handed_a) == c.is_s_type()
        assert all(count == 1 for count in handed_a.values())


def test_report_json_is_the_report_dumped_whole():
    # Each distinct page is encoded once and spliced in; the text is what one
    # `json.dumps` of the whole report gives, also for pages with no nonzero
    # cell and for a head and a tail that need escapes.
    head = {"model": 'a "quoted"\nname \u00e9', "n": 1, "lambdas": ["1/2"], "stable_at": 3}
    tail = {"verifications": [{"witnesses": [], "passed": True}], "elapsed_s": 0.25}
    dying = engine.FilteredComplex(((0,), (0,)), 0, ([{0: 1}], [{}]), (1, 1))
    for fc in (dying, to_complex(PRESETS["s2xs3"]).filtered_complex):
        pages, _ = engine.run_to_convergence(fc)
        whole = {
            **head,
            "pages": {
                str(page.r): {f"{p},{q}": d for (p, q), d in page.cell_dims().items()}
                for page in pages
            },
            **tail,
        }
        assert cli._report_json(head, pages, tail) == json.dumps(whole, indent=2) + "\n"


def test_analyze_json_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, _, _ = run(capsys, "analyze", "s3xs1", "--quiet", "--json", str(report))
    assert code == 0
    data = json.loads(report.read_text())
    assert data["de_rham_dims"] == [1, 1, 0, 1, 1]
    assert data["stable_at"] <= 3
    assert all(v["passed"] for v in data["verifications"] if v["applicable"])


def test_analyze_unwritable_json_exits_2(tmp_path, capsys):
    path = tmp_path / "no-such-dir" / "report.json"
    code, out, err = run(capsys, "analyze", "hopf-s3", "--quiet", "--json", str(path))
    assert code == 2
    assert "mainS: pass" in out
    assert err.startswith(f"error: cannot write --json {path}: ")
    assert "Traceback" not in err


def test_generate_unwritable_out_exits_2(tmp_path, capsys):
    path = tmp_path / "no-such-dir" / "model.json"
    code, out, err = run(capsys, "generate", "--seed", "7", "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write --out {path}: ")


@pytest.mark.parametrize(
    "before", [None, b"", b"x" * 64, b"y" * 100_000], ids=["absent", "empty", "shorter", "longer"]
)
def test_write_gives_the_bytes_of_a_fresh_write(tmp_path, before):
    text = dump_model(PRESETS["s2xs3"]) + "é\n"
    fresh, target = tmp_path / "fresh", tmp_path / "target"
    assert cli._write("--out", str(fresh), text)
    if before is not None:
        target.write_bytes(before)
    assert cli._write("--out", str(target), text)
    assert target.read_bytes() == fresh.read_bytes() == text.encode("utf-8")


def test_write_opens_the_target_without_truncating_it(tmp_path, monkeypatch):
    # The bytes are written over the old ones, never after a cut to zero.
    opened = []
    monkeypatch.setattr(
        cli.os,
        "open",
        lambda path, flags, *a, _fn=os.open: opened.append((path, flags)) or _fn(path, flags, *a),
    )
    path = str(tmp_path / "report.json")
    for _ in range(2):
        assert cli._write("--json", path, "{}\n")
    assert [p for p, _ in opened] == [path, path]
    for _, flags in opened:
        assert flags & os.O_WRONLY and flags & os.O_CREAT and not flags & os.O_TRUNC


def test_write_creates_a_file_with_the_mode_open_gives(tmp_path):
    old = os.umask(0o027)
    try:
        assert cli._write("--out", str(tmp_path / "new.json"), "{}\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "new.json").stat().st_mode) == 0o666 & ~0o027


def test_write_goes_through_a_symlink(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("z" * 1000)
    link.symlink_to(target)
    assert cli._write("--json", str(link), "{}\n")
    assert link.is_symlink() and target.read_text() == "{}\n"


def test_analyze_json_to_dev_null_exits_0(capsys):
    code, out, err = run(capsys, "analyze", "hopf-s3", "--quiet", "--json", os.devnull)
    assert (code, err) == (0, "")
    assert "mainS: pass" in out


def test_analyze_json_into_a_pipe_writes_the_whole_report(tmp_path):
    # /dev/stdout is the pipe the report is read from: it reports size 0,
    # and a truncate on it would fail.
    golden = tmp_path / "report.json"
    assert main(["analyze", "s2xs3", "--quiet", "--json", str(golden)]) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "specseq", "analyze", "s2xs3", "--quiet", "--json", "/dev/stdout"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    elapsed = re.compile(r'"elapsed_s": \S+')
    assert elapsed.sub("", golden.read_text()) in elapsed.sub("", proc.stdout)


def test_generate_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(
            capsys, "generate", "--seed", "7", "--n", "2", "--s", "2",
            "--type", "S", "--out", str(path),
        )
        assert code == 0
    assert a.read_text() == b.read_text()


def test_generate_c_type_lambdas(capsys):
    code, out, _ = run(capsys, "generate", "--seed", "1", "--n", "1", "--type", "C")
    assert code == 0
    assert json.loads(out)["lambdas"] == ["0"]


def test_generate_range_check(capsys):
    code, _, err = run(capsys, "generate", "--seed", "1", "--s", "9")
    assert code == 2
    assert "s must be" in err


@pytest.mark.parametrize(
    "lambdas, named", [("1, x", "--lambdas[1]:"), ("1e100000", "--lambdas[0]:")]
)
def test_generate_rejects_bad_lambdas(capsys, lambdas, named):
    code, _, err = run(capsys, "generate", "--seed", "1", "--n", "1", "--lambdas", lambdas)
    assert code == 2
    assert named in err


def test_generated_model_analyzes_clean(tmp_path, capsys):
    path = tmp_path / "m.json"
    run(capsys, "generate", "--seed", "31", "--n", "2", "--s", "2", "--type", "S",
        "--out", str(path))
    code, out, _ = run(capsys, "analyze", str(path), "--quiet")
    assert code == 0
    assert "FAIL" not in out


def test_recursion_s(capsys):
    code, out, _ = run(
        capsys, "recursion", "--betti", "1,0,0,1", "--s", "1", "--n", "1",
        "--structure", "S",
    )
    assert code == 0
    assert "(1, 0, 1)" in out


def test_recursion_c(capsys):
    code, out, _ = run(
        capsys, "recursion", "--betti", "1,3,3,1", "--s", "1", "--structure", "C"
    )
    assert code == 0
    assert "(1, 2, 1)" in out


def test_recursion_inconsistent_exits_1(capsys):
    code, _, err = run(
        capsys, "recursion", "--betti", "1,0,5,1", "--s", "1", "--structure", "C"
    )
    assert code == 1
    assert "not the Betti sequence" in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (("1,0,0,1", "--s", "3", "--n", "0", "--structure", "S"), "degree 1: expected 0, got 3"),
        (("1,3,3,7", "--s", "1", "--structure", "C"), "degree 3: expected 7, got 1"),
    ],
    ids=["S", "C"],
)
def test_recursion_refuses_a_list_its_result_cannot_produce(capsys, argv, named):
    code, out, err = run(capsys, "recursion", "--betti", *argv)
    assert code == 1
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("error: ") and named in line and "not the Betti sequence" in line


@pytest.mark.parametrize(
    "argv, named",
    [
        (("1,0,1", "--s", "1", "--n", "1", "--structure", "S"), "--betti must list 4 Betti numbers"),
        (("1", "--s", "1", "--structure", "C"), "--betti must list at least 2 Betti numbers"),
        (("1,-1", "--s", "1", "--structure", "C"), "--betti must be a comma-separated list of non-negative"),
        (("1,0,-1,1", "--s", "1", "--n", "0", "--structure", "S"), "--betti must be a comma-separated"),
        (("1,x", "--s", "1", "--structure", "C"), "--betti must be a comma-separated"),
        (("1,0,1", "--s", "1", "--structure", "S"), "--n is required for structure S"),
    ],
    ids=["S-length", "C-length", "C-negative", "S-negative", "not-an-integer", "S-without-n"],
)
def test_recursion_refusals_exit_2_and_name_the_flag(capsys, argv, named):
    code, out, err = run(capsys, "recursion", "--betti", *argv)
    assert code == 2
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("error: ") and named in line


def test_recursion_small_case(capsys):
    code, out, _ = run(
        capsys, "recursion", "--betti", "1,1", "--s", "1", "--structure", "C"
    )
    assert code == 0
    assert "(1,)" in out


@pytest.mark.parametrize(
    "argv, named",
    [
        (("--betti", "1,0,1", "--s", "-1", "--structure", "C"), "--s"),
        (("--betti", "1,1", "--s", "0", "--structure", "C"), "--s"),
        (("--betti", "1,0,1", "--s", "1", "--n", "-1", "--structure", "S"), "--n"),
    ],
)
def test_recursion_rejects_out_of_range_s_or_n(capsys, argv, named):
    code, _, err = run(capsys, "recursion", *argv)
    assert code == 2
    assert f"error: {named} must be" in err


def test_star_check_sweep(capsys):
    code, out, _ = run(capsys, "star-check")
    assert code == 0
    assert "all star relations hold" in out


def test_star_check_single(capsys):
    code, out, _ = run(capsys, "star-check", "--n", "2", "--s", "2")
    assert code == 0
    assert "n=2 s=2: pass" in out


def test_star_check_prints_the_first_counterexample_and_exits_1(capsys, monkeypatch):
    frame = ModelFrame(2, 2)
    got = Multivector.make(frame, 3, {(0, 1, 4): 1, (2, 3, 4): Fraction(1, 2)})
    expected = Multivector.make(frame, 3, {(0, 1, 4): Fraction(-1)})
    monkeypatch.setattr(cli, "star_relation_counterexamples", lambda f: [((1,), (0, 1), got, expected)])
    code, out, _ = run(capsys, "star-check", "--n", "2", "--s", "2")
    assert code == 1
    assert out.splitlines() == [
        "n=2 s=2: FAIL on eta subset (1,), monomial (0, 1): "
        "got {(0, 1, 4): 1, (2, 3, 4): 1/2}, expected {(0, 1, 4): -1}"
    ]


def test_star_check_range(capsys):
    code, _, err = run(capsys, "star-check", "--n", "5")
    assert code == 2


def test_presets_list_and_show(capsys):
    code, out, _ = run(capsys, "presets")
    assert code == 0
    for name in ("hopf-s3", "s5", "s2xs3", "torus-t3", "torus-t4", "s3xs1"):
        assert name in out
    code, out, _ = run(capsys, "presets", "hopf-s3")
    assert code == 0
    assert json.loads(out)["n"] == 1


def test_presets_unknown(capsys):
    code, _, err = run(capsys, "presets", "nope")
    assert code == 2


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "--n", "2", "e1^e2")
    assert code == 0
    assert "L^1" in out and "L^0" in out


@pytest.mark.parametrize("form, scalar", [("11", "11"), ("1/21", "1/21"), ("-- -1/61", "-1/61"), ("21*e1^e2", "21")])
def test_decompose_bare_rational(capsys, form, scalar):
    code, out, _ = run(capsys, "decompose", "--n", "1", *form.split())
    assert code == 0
    assert out.splitlines()[-1].endswith(f"(degree 0): {scalar}")


@pytest.mark.parametrize(
    "argv, last_line",
    [
        (("--n", "1", "-1/60"), "(degree 0): -1/60"),
        (("--n", "1", "-e1^e2"), "(degree 0): -1"),
        (("--n", "1", "-3/2*e1^e2"), "(degree 0): -3/2"),
        (("-1/60", "--n", "1"), "(degree 0): -1/60"),
    ],
)
def test_decompose_leading_minus(capsys, argv, last_line):
    code, out, err = run(capsys, "decompose", *argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].endswith(last_line)


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (("-h",), 0, None),
        (("-1/60",), 2, "the following arguments are required: --n"),
        (("--n", "1"), 2, "the following arguments are required: form"),
    ],
)
def test_decompose_help_and_missing_arguments(capsys, argv, code, message):
    with pytest.raises(SystemExit) as exc:
        main(["decompose", *argv])
    captured = capsys.readouterr()
    assert exc.value.code == code
    if message:
        assert message in captured.err
    else:
        assert captured.out.startswith("usage: specseq decompose [-h] --n N form")


def test_decompose_n6_reconstructs_with_primitive_components(capsys):
    text = "e1^e2^e3^e4^e5^e6 + e7^e8^e9^e10^e11^e12"
    code, out, _ = run(capsys, "decompose", "--n", "6", text)
    assert code == 0
    frame = ModelFrame(6)
    form = parse_form(frame, text)
    total = Multivector.zero(frame, form.degree)
    lines = out.splitlines()
    assert lines[0] == "form of degree 6 on R^12:"
    for line in lines[1:]:
        m = re.fullmatch(r"  L\^(\d+) applied to primitive part \(degree (\d+)\): (.*)", line)
        i, degree, body = int(m.group(1)), int(m.group(2)), m.group(3)
        beta = parse_form(frame, body)
        assert beta.degree == int(degree)
        assert oracle.lambda_op(beta).is_zero()
        for _ in range(i):
            beta = lefschetz_L(beta)
        total = total + beta
    assert total == form


def test_decompose_bad_form(capsys):
    code, _, err = run(capsys, "decompose", "--n", "1", "e1^")
    assert code == 2
    code, _, err = run(capsys, "decompose", "--n", "1", "2*")
    assert code == 2
    assert "cannot parse term '2*'" in err


@pytest.mark.parametrize(
    "form, code, output",
    [
        ("e1^e1", 0, "0 (the form is zero)"),
        ("0*e1^e2", 0, "0 (the form is zero)"),
        ("e1^e2^e1 + e3", 2, "error: form is not homogeneous"),
        ("e9^e9 + e1", 2, "error: covector index out of range in 'e9^e9' (transverse dim 4)"),
        ("e9 + e1", 2, "error: covector index out of range in 'e9' (transverse dim 4)"),
    ],
)
def test_decompose_checks_a_zero_term_before_skipping_it(capsys, form, code, output):
    # A repeated covector makes a term zero; its degree and index range are
    # still checked, as for any other term.
    status, out, err = run(capsys, "decompose", "--n", "2", form)
    assert status == code
    assert (out if code == 0 else err).strip() == output


@pytest.mark.parametrize("form", ["1/0*e1", "18446744073709551616*e1", "18446744073709551616"])
def test_decompose_rejects_bad_coefficient(capsys, form):
    code, _, err = run(capsys, "decompose", "--n", "1", form)
    assert code == 2
    assert f"term {form!r}" in err


@pytest.mark.parametrize(
    "argv, last_accepted, first_refused",
    [
        (("generate", "--seed", "1", "--n"), 6, 7),
        (("generate", "--seed", "1", "--s"), 4, 5),
        (("generate", "--seed", "1", "--s"), 1, 0),
        (("recursion", "--betti", "1,1", "--structure", "C", "--s"), 1, 0),
        (("recursion", "--betti", "1,1", "--structure", "S", "--s", "1", "--n"), 0, -1),
        (("star-check", "--n"), 3, 4),
        (("star-check", "--n"), 0, -1),
        (("star-check", "--s"), 4, 5),
        (("star-check", "--s"), 0, -1),
        (("decompose", "1", "--n"), 6, 7),
        (("decompose", "1", "--n"), 0, -1),
        (("generate", "--seed", "1", "--max-primitive-dim"), 2, 3),
        (("generate", "--seed", "1", "--max-primitive-dim"), 0, -1),
        (("generate", "--seed", "1", "--n"), 0, -1),
    ],
)
def test_flag_limits_boundary(capsys, argv, last_accepted, first_refused):
    code, _, _ = run(capsys, *argv, str(last_accepted))
    assert code == 0
    code, _, err = run(capsys, *argv, str(first_refused))
    assert code == 2
    assert f"error: {argv[-1]} must be" in err


def test_parse_form_syntax():
    f = ModelFrame(2)
    a = parse_form(f, "2*e1^e2 - 1/2 e3^e4")
    assert a.coefficient((0, 1)) == 2
    assert a.coefficient((2, 3)) == -0.5
    # Out-of-order wedges pick up the reordering sign.
    assert parse_form(f, "e2^e1") == parse_form(f, "e1^e2").scaled(-1)
    with pytest.raises(ValueError):
        parse_form(f, "e1 + e1^e2")  # inhomogeneous
    with pytest.raises(ValueError):
        parse_form(f, "e9")  # out of range


def test_format_form_roundtrip():
    f = ModelFrame(2)
    a = parse_form(f, "e1^e2 - 3/2*e3^e4")
    assert parse_form(f, format_form(a)) == a
    assert format_form(Multivector.zero(f, 1)) == "0"
    # `decompose` prints a degree-0 component as a bare rational.
    f = ModelFrame(3)
    scalars = []
    for text in (
        "e1^e2",
        "-3*e1^e2 + e3^e4",
        "e1^e2^e3^e4 - 2/5*e1^e2^e5^e6",
        "e1^e2 + e3^e4 + e5^e6",
    ):
        for _, beta in primitive_decompose(parse_form(f, text)):
            assert parse_form(f, format_form(beta)) == beta
            if beta.degree == 0:
                scalars.append(format_form(beta))
    assert scalars == ["1/3", "-2/3", "1/10", "1"]
    # A bare rational whose text ends in 1 is read whole, not as coefficient
    # times the monomial '1'.
    for c in (Fraction(11), Fraction(21), Fraction(1, 21), Fraction(-1, 61)):
        beta = Multivector.make(f, 0, {(): c})
        assert format_form(beta) == str(c)
        assert parse_form(f, format_form(beta)) == beta
