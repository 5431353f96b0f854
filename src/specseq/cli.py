"""Command line front end.

Subcommands: analyze, generate, recursion, star-check, presets, decompose.
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
from .engine import run_to_convergence
from .exterior import (
    ModelFrame,
    Multivector,
    _inversion_parity,
    monomials,
    primitive_decompose,
    star_relation_counterexamples,
)
from .invariant import cohomology, filtered_complex
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
from .sampling import MAX_PRIMITIVE_DIM, SampleConfig, sample_primitive_dims
from .verify import (
    VerificationReport,
    basic_betti_from_deRham,
    model_star_duality,
    primitive_betti_from_deRham,
    verify_E2,
    verify_mainC,
    verify_mainS,
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


def _page_table(page, max_p: int, max_q: int) -> str:
    lines = [f"E_{page.r} (rows q, columns p):"]
    header = "  q\\p " + "".join(f"{p:>4}" for p in range(max_p + 1))
    lines.append(header)
    for q in range(max_q, -1, -1):
        row = f"  {q:>3} " + "".join(f"{page.dim(p, q):>4}" for p in range(max_p + 1))
        lines.append(row)
    return "\n".join(lines)


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
    except (ModelFileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    start = time.perf_counter()
    fc = filtered_complex(complex_)
    sequence = run_to_convergence(fc)
    pages, stable_at = sequence
    classes = cohomology(complex_, fc.basis_reductions())
    betti = tuple(q.dim for q in classes)
    reports = [verify_E2(complex_, sequence)]
    if complex_.is_s_type():
        reports.append(verify_mainS(complex_, sequence, betti))
        reports.append(model_star_duality(complex_, classes))
    if complex_.is_c_type():
        reports.append(verify_mainC(complex_, sequence))
    elapsed = time.perf_counter() - start
    name = mf.name or args.model
    if not args.quiet:
        print(f"model {name}: n={mf.n} s={mf.s} lambdas={[str(x) for x in mf.lambdas]}")
        print(f"chain dims: {tuple(complex_.dim(k) for k in range(complex_.max_degree + 1))}")
        print(f"de Rham dims: {betti}")
        print(f"stable at page {stable_at}")
        max_p = 2 * mf.n
        max_q = mf.s
        for page in pages[: min(stable_at, len(pages) - 1) + 1]:
            print(_page_table(page, max_p, max_q))
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
        payload = {
            "tool_version": __version__,
            "model": name,
            "n": mf.n,
            "s": mf.s,
            "lambdas": [str(x) for x in mf.lambdas],
            "chain_dims": [complex_.dim(k) for k in range(complex_.max_degree + 1)],
            "de_rham_dims": list(betti),
            "stable_at": stable_at,
            "pages": {
                str(page.r): {f"{p},{q}": d for (p, q), d in page.cell_dims().items()}
                for page in pages
            },
            "verifications": [_report_dict(r) for r in reports],
            "elapsed_s": elapsed,
        }
        if not _write("--json", args.json, json.dumps(payload, indent=2) + "\n"):
            return EXIT_INVALID
    return EXIT_FAIL if failed else EXIT_OK


def cmd_generate(args) -> int:
    if not _flags_in_range("generate", n=None if args.n == -1 else args.n, s=args.s):
        return EXIT_INVALID
    if not 0 <= args.max_primitive_dim <= MAX_PRIMITIVE_DIM:
        print(f"error: --max-primitive-dim must be between 0 and {MAX_PRIMITIVE_DIM}", file=sys.stderr)
        return EXIT_INVALID
    rng = random.Random(args.seed)
    n = args.n if args.n != -1 else rng.randint(1, 4)
    cfg = SampleConfig(max_primitive_dim=args.max_primitive_dim)
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
        lambdas = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(args.s)]
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
        count = sum(
            len(monomials(frame, r)) * (2 ** s)
            for r in range(frame.transverse_dim + 1)
        )
        total += count
        if bad:
            subset, alpha_idx, lhs, rhs = bad[0]
            print(
                f"n={n} s={s}: FAIL on eta subset {subset}, monomial {alpha_idx}: "
                f"got {lhs.terms}, expected {rhs.terms}"
            )
            return EXIT_FAIL
        print(f"n={n} s={s}: pass ({count} cases)")
    print(f"all star relations hold ({total} cases)")
    return EXIT_OK


def cmd_presets(args) -> int:
    if args.name is None:
        for name, mf in PRESETS.items():
            print(f"{name:10s} n={mf.n} s={mf.s} lambdas={[str(x) for x in mf.lambdas]}  {mf.description}")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specseq",
        description="Exact spectral sequences for invariant-form models of foliated manifolds",
    )
    parser.add_argument("--version", action="version", version=f"specseq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the engine and all applicable theorem checks")
    p.add_argument("model", help="model file path or preset name")
    p.add_argument("--json", metavar="PATH", help="write the full report as JSON")
    p.add_argument("--quiet", action="store_true", help="only print verdict lines")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("generate", help="emit a seeded random model file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, default=-1, help="transverse half-dimension (default: seeded)")
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--type", choices=["S", "C", "mixed"], default="S")
    p.add_argument("--lambdas", help="comma-separated rationals overriding --type")
    p.add_argument("--max-primitive-dim", type=int, default=2)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("recursion", help="basic/primitive Betti numbers from de Rham ones")
    p.add_argument("--betti", required=True, help="comma-separated de Rham dims")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--structure", choices=["S", "C"], required=True)
    p.set_defaults(func=cmd_recursion)

    p = sub.add_parser("star-check", help="exhaustive Hodge star splitting identity")
    p.add_argument("--n", type=int)
    p.add_argument("--s", type=int)
    p.set_defaults(func=cmd_star_check)

    p = sub.add_parser("presets", help="list presets or print one as a model file")
    p.add_argument("name", nargs="?")
    p.set_defaults(func=cmd_presets)

    p = sub.add_parser("decompose", help="Lefschetz-decompose a transverse form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("form", help="e.g. 'e1^e2 + 1/2*e3^e4'")
    p.set_defaults(func=cmd_decompose)
    # argparse reads an argument that starts with '-' as an option unless it
    # matches this pattern of negative numbers.  Widened to forms such as
    # '-1/60' and '-e1^e2', it lets them reach `form`; '-h' and '--n' do not
    # match it, so they stay options.
    p._negative_number_matcher = re.compile(r"^-(\d|e\d)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def entrypoint():
    sys.exit(main())
