"""Command line front end.

Subcommands: analyze, generate, recursion, star-check, presets, decompose,
listed once in `_commands`.  `main` builds only the parser of the
subcommand its first word names, and the root parser with every subcommand
only when the first word names none or that parser leaves arguments over;
help, usage and error text are those of the root parser.
`analyze` runs every verifier that applies on the one complex it builds;
the verifiers share the analysis the complex keeps, so its pages and its
cohomology are computed once, and the report renders each distinct page
table once, however many pages share it.
Exit codes: 0 all applicable checks pass, 1 a check fails (or the input is
inconsistent with the theorems), 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
import time
from fractions import Fraction

from . import __version__
from .exterior import (
    ModelFrame,
    Multivector,
    _inversion_parity,
    primitive_decompose,
    star_relation_counterexamples,
)
from .invariant import betti_numbers
from .lefschetz import generate_hlp_module
from .modelfile import (
    FLAG_LIMITS,
    ModelFileError,
    dump_model,
    from_module,
    load_model,
    parse_rational,
    to_complex,
)
from .presets import PRESETS
from .sampling import SampleConfig, random_rational, sample_primitive_dims
from .verify import (
    VerificationReport,
    analyze_reports,
    basic_betti_from_deRham,
    primitive_betti_from_deRham,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INVALID = 2


def _flags_in_range(command: str, **values) -> bool:
    """Check flag values against FLAG_LIMITS; print an error naming the first one outside."""
    for flag, value in values.items():
        low, high = FLAG_LIMITS[command][flag]
        if value is None or (low <= value and (high is None or value <= high)):
            continue
        bounds = f"at least {low}" if high is None else f"between {low} and {high}"
        print(f"error: --{flag} must be {bounds}", file=sys.stderr)
        return False
    return True


def _write(flag: str, path: str, text: str) -> bool:
    """Write `text` to `path`; print an error naming the flag if that fails."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {flag} {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def _table_body(page, max_p: int, max_q: int) -> str:
    """The page's table under its `E_r` title line."""
    lines = ["  q\\p " + "".join(f"{p:>4}" for p in range(max_p + 1))]
    for q in range(max_q, -1, -1):
        lines.append(f"  {q:>3} " + "".join(f"{page.dim(p, q):>4}" for p in range(max_p + 1)))
    return "\n".join(lines)


def _per_table(render, pages) -> list:
    """`render(page)` for each page, called once per distinct `cells`
    mapping: the pages on which the same gaps have cancelled share one."""
    out, seen = [], {}
    for page in pages:
        key = id(page.cells)
        if key not in seen:
            seen[key] = render(page)
        out.append(seen[key])
    return out


def _report_json(head: dict, pages, tail: dict) -> str:
    """`json.dumps` of `head`, then "pages", then `tail`, with indent 2 and a
    final newline; each page is its nonzero cells as {"p,q": dim}.  Each
    distinct `cells` mapping is encoded once, indented for its place two
    levels down, and every page that shares it reuses that text."""
    encoded = _per_table(
        lambda page: json.dumps(
            {f"{p},{q}": d for (p, q), d in page.cell_dims().items()}, indent=2
        ).replace("\n", "\n    "),
        pages,
    )
    rows = ",\n    ".join(f'"{page.r}": {text}' for page, text in zip(pages, encoded))
    return (
        json.dumps(head, indent=2)[: -len("\n}")]
        + f',\n  "pages": {{\n    {rows}\n  }},\n'
        + json.dumps(tail, indent=2)[len("{\n") :]
        + "\n"
    )


def _report_dict(r: VerificationReport) -> dict:
    return {
        "theorem": r.theorem,
        "passed": r.passed,
        "applicable": r.applicable,
        "witnesses": [str(w) for w in r.witnesses],
        "hypothesis_violation": r.hypothesis_violation,
    }


def cmd_analyze(args) -> int:
    if args.model in PRESETS:
        mf = PRESETS[args.model]
    else:
        try:
            mf = load_model(args.model)
        except ModelFileError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INVALID
    try:
        complex_ = to_complex(mf)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    start = time.perf_counter()
    reports = analyze_reports(complex_)
    pages, stable_at = complex_.spectral_sequence
    betti = betti_numbers(complex_)
    elapsed = time.perf_counter() - start
    name = mf.name or args.model
    if not args.quiet:
        print(f"model {name}: n={mf.base.n} s={mf.s} lambdas={[str(x) for x in mf.lambdas]}")
        print(f"chain dims: {tuple(complex_.dim(k) for k in range(complex_.max_degree + 1))}")
        print(f"de Rham dims: {betti}")
        print(f"stable at page {stable_at}")
        shown = pages[: min(stable_at, len(pages) - 1) + 1]
        bodies = _per_table(lambda page: _table_body(page, 2 * mf.base.n, mf.s), shown)
        for page, body in zip(shown, bodies):
            print(f"E_{page.r} (rows q, columns p):\n{body}")
    failed = False
    for r in reports:
        if not r.applicable:
            verdict = f"n/a ({r.hypothesis_violation})"
        elif r.passed:
            verdict = "pass"
        else:
            verdict = "FAIL " + "; ".join(str(w) for w in r.witnesses)
            failed = True
        print(f"{r.theorem}: {verdict}")
    if args.json:
        head = {
            "tool_version": __version__,
            "model": name,
            "n": mf.base.n,
            "s": mf.s,
            "lambdas": [str(x) for x in mf.lambdas],
            "chain_dims": [complex_.dim(k) for k in range(complex_.max_degree + 1)],
            "de_rham_dims": list(betti),
            "stable_at": stable_at,
        }
        tail = {"verifications": [_report_dict(r) for r in reports], "elapsed_s": elapsed}
        if not _write("--json", args.json, _report_json(head, pages, tail)):
            return EXIT_INVALID
    return EXIT_FAIL if failed else EXIT_OK


def cmd_generate(args) -> int:
    if not _flags_in_range("generate", n=args.n, s=args.s, **{"max-primitive-dim": args.max_primitive_dim}):
        return EXIT_INVALID
    rng = random.Random(args.seed)
    cfg = SampleConfig(max_primitive_dim=args.max_primitive_dim)
    n = rng.randint(1, cfg.n_max) if args.n is None else args.n
    pdims = sample_primitive_dims(rng, n, cfg)
    base = generate_hlp_module(rng.getrandbits(32), n, pdims)
    if args.lambdas is not None:
        try:
            parts = enumerate(args.lambdas.split(","))
            lambdas = [parse_rational(x.strip(), f"--lambdas[{i}]") for i, x in parts]
        except ModelFileError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INVALID
        if len(lambdas) != args.s:
            print(f"error: --lambdas must list {args.s} rationals", file=sys.stderr)
            return EXIT_INVALID
    elif args.type == "S":
        lambdas = [Fraction(1)] * args.s
    elif args.type == "C":
        lambdas = [Fraction(0)] * args.s
    else:
        lambdas = [random_rational(rng) for _ in range(args.s)]
    mf = from_module(
        base,
        args.s,
        lambdas,
        name=f"generated-{args.seed}",
        description=f"seeded model (seed={args.seed}, n={n}, s={args.s}, type={args.type})",
    )
    text = dump_model(mf)
    if args.out:
        if not _write("--out", args.out, text):
            return EXIT_INVALID
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_recursion(args) -> int:
    try:
        betti = [int(x.strip()) for x in args.betti.split(",")]
    except ValueError:
        print("error: --betti must be a comma-separated list of integers", file=sys.stderr)
        return EXIT_INVALID
    if not _flags_in_range("recursion", s=args.s, n=args.n):
        return EXIT_INVALID
    if args.structure == "S":
        if args.n is None:
            print("error: --n is required for structure S", file=sys.stderr)
            return EXIT_INVALID
        if len(betti) != 2 * args.n + args.s + 1:
            print(
                f"error: expected {2 * args.n + args.s + 1} Betti numbers for n={args.n}, s={args.s}",
                file=sys.stderr,
            )
            return EXIT_INVALID
        try:
            pdims, basic = primitive_betti_from_deRham(betti, args.s, args.n)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_FAIL
        print(f"primitive dims (degrees 0..{args.n}): {pdims}")
        print(f"basic dims (degrees 0..{2 * args.n}): {basic}")
    else:
        if len(betti) < args.s + 1:
            print(f"error: need at least {args.s + 1} Betti numbers", file=sys.stderr)
            return EXIT_INVALID
        try:
            basic = basic_betti_from_deRham(betti, args.s)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_FAIL
        print(f"basic dims (degrees 0..{len(basic) - 1}): {basic}")
    return EXIT_OK


def _format_terms(a: Multivector) -> str:
    """The terms of a form as {idx: c, ...}, each coefficient printed by `str`."""
    return "{" + ", ".join(f"{idx}: {c}" for idx, c in a.terms) + "}"


def cmd_star_check(args) -> int:
    pairs = []
    if args.n is not None or args.s is not None:
        n = args.n if args.n is not None else 2
        s = args.s if args.s is not None else 3
        if not _flags_in_range("star-check", n=n, s=s):
            return EXIT_INVALID
        pairs = [(n, s)]
    else:
        pairs = [(n, s) for n in range(3) for s in range(4)]
    total = 0
    for n, s in pairs:
        frame = ModelFrame(n, s)
        bad = star_relation_counterexamples(frame)
        count = 2**frame.total_dim
        total += count
        if bad:
            subset, alpha_idx, lhs, rhs = bad[0]
            print(
                f"n={n} s={s}: FAIL on eta subset {subset}, monomial {alpha_idx}: "
                f"got {_format_terms(lhs)}, expected {_format_terms(rhs)}"
            )
            return EXIT_FAIL
        print(f"n={n} s={s}: pass ({count} cases)")
    print(f"all star relations hold ({total} cases)")
    return EXIT_OK


def cmd_presets(args) -> int:
    if args.name is None:
        for name, mf in PRESETS.items():
            print(f"{name:10s} n={mf.base.n} s={mf.s} lambdas={[str(x) for x in mf.lambdas]}  {mf.description}")
        return EXIT_OK
    if args.name not in PRESETS:
        print(f"error: unknown preset {args.name!r}", file=sys.stderr)
        return EXIT_INVALID
    sys.stdout.write(dump_model(PRESETS[args.name]))
    return EXIT_OK


# The bare rational comes first: otherwise a coefficient ending in 1 (as in
# '11' or '1/21') would backtrack and lose that digit to the monomial '1'.
_TERM_RE = re.compile(
    r"^\s*(?P<scalar>-?\d+(?:/\d+)?)\s*$"
    r"|^\s*(?:(?P<coef>-?\d+(?:/\d+)?)\s*\*?\s*)?(?P<mono>(?:e\d+(?:\^e\d+)*)|1)\s*$"
)


def parse_form(frame: ModelFrame, text: str) -> Multivector:
    """Parse forms like '2*e1^e2 - 1/2 e3^e4' over the transverse space.

    A bare rational such as '1/60' is a term of degree 0, as `format_form`
    prints it.
    """
    chunks = re.split(r"(?=[+-])", text.replace("- ", "-").replace("+ ", "+"))
    terms: dict[tuple[int, ...], Fraction] = {}
    degree = None
    for chunk in chunks:
        chunk = chunk.strip()
        if not chunk:
            continue
        sign = Fraction(1)
        if chunk[0] == "+":
            chunk = chunk[1:].strip()
        elif chunk[0] == "-":
            sign = Fraction(-1)
            chunk = chunk[1:].strip()
        m = _TERM_RE.match(chunk)
        if not m:
            raise ValueError(f"cannot parse term {chunk!r}")
        coef = sign * parse_rational(m.group("coef") or m.group("scalar") or 1, f"term {chunk!r}")
        mono = m.group("mono")
        labels = [] if mono in (None, "1") else [int(x[1:]) for x in mono.split("^")]
        if any(not 1 <= i <= frame.transverse_dim for i in labels):
            raise ValueError(f"covector index out of range in {chunk!r} (transverse dim {frame.transverse_dim})")
        if degree is None:
            degree = len(labels)
        elif degree != len(labels):
            raise ValueError("form is not homogeneous")
        if len(set(labels)) != len(labels):
            continue  # repeated covector wedges to zero
        coef *= (-1) ** _inversion_parity(labels)
        idx = tuple(sorted(i - 1 for i in labels))
        terms[idx] = terms.get(idx, Fraction(0)) + coef
    if degree is None:
        raise ValueError("empty form")
    return Multivector.make(frame, degree, terms)


def format_form(a: Multivector) -> str:
    if a.is_zero():
        return "0"
    parts = []
    for idx, c in a.terms:
        mono = "^".join(f"e{i + 1}" for i in idx) if idx else "1"
        if c == 1 and idx:
            parts.append(mono)
        elif c == -1 and idx:
            parts.append(f"-{mono}")
        elif idx:
            parts.append(f"{c}*{mono}")
        else:
            parts.append(str(c))
    return " + ".join(parts).replace("+ -", "- ")


def cmd_decompose(args) -> int:
    if not _flags_in_range("decompose", n=args.n):
        return EXIT_INVALID
    frame = ModelFrame(args.n, 0)
    try:
        form = parse_form(frame, args.form)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    components = primitive_decompose(form)
    if not components:
        print("0 (the form is zero)")
        return EXIT_OK
    print(f"form of degree {form.degree} on R^{2 * args.n}:")
    for i, beta in components:
        print(f"  L^{i} applied to primitive part (degree {beta.degree}): {format_form(beta)}")
    return EXIT_OK


def _analyze_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("model", help="model file path or preset name")
    p.add_argument("--json", metavar="PATH", help="write the full report as JSON")
    p.add_argument("--quiet", action="store_true", help="only print verdict lines")


def _generate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, help="transverse half-dimension (default: seeded)")
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--type", choices=["S", "C", "mixed"], default="S")
    p.add_argument("--lambdas", help="comma-separated rationals overriding --type")
    p.add_argument("--max-primitive-dim", type=int, default=2)
    p.add_argument("--out", metavar="PATH")


def _recursion_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--betti", required=True, help="comma-separated de Rham dims")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--structure", choices=["S", "C"], required=True)


def _star_check_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int)
    p.add_argument("--s", type=int)


def _presets_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("name", nargs="?")


def _decompose_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("form", help="e.g. 'e1^e2 + 1/2*e3^e4'")
    # argparse reads an argument that starts with '-' as an option unless it
    # matches this pattern of negative numbers.  Widened to forms such as
    # '-1/60' and '-e1^e2', it lets them reach `form`; '-h' and '--n' do not
    # match it, so they stay options.
    p._negative_number_matcher = re.compile(r"^-(\d|e\d)")


def _commands() -> tuple:
    """Name, help line, handler and the function adding its arguments, per
    subcommand.  The table is read on each call, so a handler rebound on
    this module (as a tracer does) is the one run."""
    return (
        ("analyze", "run the engine and all applicable theorem checks", cmd_analyze, _analyze_arguments),
        ("generate", "emit a seeded random model file", cmd_generate, _generate_arguments),
        ("recursion", "basic/primitive Betti numbers from de Rham ones", cmd_recursion, _recursion_arguments),
        ("star-check", "exhaustive Hodge star splitting identity", cmd_star_check, _star_check_arguments),
        ("presets", "list presets or print one as a model file", cmd_presets, _presets_arguments),
        ("decompose", "Lefschetz-decompose a transverse form", cmd_decompose, _decompose_arguments),
    )


def build_parser() -> argparse.ArgumentParser:
    """The root parser with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="specseq",
        description="Exact spectral sequences for invariant-form models of foliated manifolds",
    )
    parser.add_argument("--version", action="version", version=f"specseq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, add_arguments in _commands():
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    """Run one command line.

    When its first word names a subcommand, only that subcommand's parser is
    built, as `specseq <command>`, which is the prog the root parser gives
    it, so its help, usage and errors read the same.  The root parser is
    built only when the first word names no subcommand (as for `--help`,
    `--version` or an unknown command), or when the subcommand's parser
    leaves arguments over, which the root parser reports.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    for name, _, handler, add_arguments in _commands():
        if argv and argv[0] == name:
            parser = argparse.ArgumentParser(prog=f"specseq {name}")
            add_arguments(parser)
            args, rest = parser.parse_known_args(argv[1:])
            if not rest:
                return handler(args)
            break
    args = build_parser().parse_args(argv)
    return args.func(args)


def entrypoint():
    sys.exit(main())
