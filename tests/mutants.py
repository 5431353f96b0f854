"""Mutation check: does some test fail on each recorded mutant of the package?

    python tests/mutants.py              # every mutant
    python tests/mutants.py e-power ...  # the named ones

Each mutant replaces one snippet of the source of `src/specseq`.  The
package, the tests and `pyproject.toml` are copied into a temporary
directory, the snippet is replaced in the copy, and pytest runs the
mutant's tests there with a fixed Hypothesis seed; the working tree is
never written.  One line per mutant: "caught by" and the first test that
failed (with the number of the others), "SURVIVED" when every test passed,
or "STALE" when the snippet is not in the source exactly once.  The exit
status is 1 when any mutant survived or is stale.

A mutant that survives is a missing test, unless it is equivalent to the
code it replaces.  Standard library only; the name keeps tier-1 from
collecting this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_DECOMPOSE = ["tests/test_lefschetz.py", "tests/test_acceptance.py::test_criterion_8_decompositions"]
_STAR = ["tests/test_verify.py", "tests/test_acceptance.py", "tests/test_analyze_golden.py"]
_VIEWS = ["tests/test_invariant.py", "tests/test_engine.py"]
_EXTERIOR = ["tests/test_exterior.py"]
_ENGINE = ["tests/test_linalg.py", "tests/test_engine.py", "tests/test_invariant.py"]
_VERIFY = ["tests/test_verify.py"]
_CLI = ["tests/test_cli.py"]
_LOW = """\
        low = max(r, default=None)
        while low in reduced:
            p = reduced[low]
            g = gcd(p[low], r[low])
            a, c = p[low] // g, r[low] // g
            r = _combine(a, r, c, p)
            if with_v:
                v = _combine(a, v, c, reduced_v[low])
            low = max(r, default=None)
"""

# (name, file under src/specseq, snippet, replacement, tests to run)
MUTANTS = [
    # lefschetz_decompose_class on the integer columns.
    (
        "e-power",
        "lefschetz.py",
        "beta.get(j, 0) * e**i, scale",
        "beta.get(j, 0), scale",
        _DECOMPOSE,
    ),
    (
        "scale-sign",
        "lefschetz.py",
        "scale = -w[len(cols) - 1] * den",
        "scale = w[len(cols) - 1] * den",
        _DECOMPOSE,
    ),
    # Allowing i > n - d instead is an equivalent mutant: those pieces
    # L^i beta are zero columns, which take no part in the reduction.
    (
        "i-at-n-minus-d-dropped",
        "lefschetz.py",
        "if i > n - d:  # d > n, or L^i kills PH^d",
        "if i >= n - d:",
        _DECOMPOSE,
    ),
    (
        "v-first",
        "lefschetz.py",
        "cols.append({j: (x * den).numerator for j, x in enumerate(v) if x})",
        "cols.insert(0, {j: (x * den).numerator for j, x in enumerate(v) if x})",
        _DECOMPOSE,
    ),
    # The Lefschetz structure: the star images L^{n-d} beta and Ker L.
    (
        "star-images-one-power-too-high",
        "lefschetz.py",
        "apply_columns(powers[p][n - p], beta)",
        "apply_columns(powers[p][n - p + 1], beta)",
        _STAR,
    ),
    (
        "kernel-L-vector-dropped",
        "lefschetz.py",
        "kernel = tuple(_kernel(cols) for cols in L)",
        "kernel = tuple(_kernel(cols)[1:] for cols in L)",
        _STAR,
    ),
    # Star duality's ranks from the boundaries of H^k, and the dense views.
    (
        "drop-a-boundary-pivot",
        "verify.py",
        "boundaries = classes[k2].boundaries",
        "boundaries = dict(list(classes[k2].boundaries.items())[1:])",
        _STAR,
    ),
    (
        "boundaries-one-degree-down",
        "verify.py",
        "boundaries = classes[k2].boundaries",
        "boundaries = classes[k2 - 1].boundaries",
        _STAR,
    ),
    # The star images' own reduction is skipped only when they add as many
    # classes to part A's as there are images.
    (
        "rank-img-shortcut-always",
        "verify.py",
        "if added == len(closed):",
        "if True:",
        _STAR,
    ),
    (
        "engine-view-den-plus-one",
        "engine.py",
        "from_integer_columns(cols, self.dim(k + 1), den)",
        "from_integer_columns(cols, self.dim(k + 1), den + 1)",
        _VIEWS,
    ),
    (
        "row-index-at-the-target-dimension",
        "engine.py",
        "if not 0 <= i < rows:",
        "if not 0 <= i <= rows:",
        _VIEWS,
    ),
    # The engine reduces in basis order, so it must refuse any other order.
    (
        "basis-order-unchecked",
        "engine.py",
        "if any(a < b for a, b in zip(src, src[1:])):",
        "if False:",
        _ENGINE,
    ),
    # The reductions that the pages and H^k read, which the certificate in
    # tests/reduction_certificate.py checks.
    (
        "dropped-v-update",
        "linalg.py",
        "                v = _combine(a, v, c, reduced_v[low])\n",
        "                pass\n",
        _ENGINE,
    ),
    (
        "clear-at-the-columns-not-the-lows",
        "engine.py",
        "cleared = {low: R_prev[j] for low, j in lows_prev.items()}",
        "cleared = {j: R_prev[j] for low, j in lows_prev.items()}",
        _ENGINE,
    ),
    # H^k as a view of the reductions.
    (
        "boundary-counted-as-a-class",
        "invariant.py",
        "if not r and j not in self.lows_prev)",
        "if not r)",
        _VIEWS,
    ),
    # The persistence pairing, the pages and the E_2 verdict read from them.
    # Every model's pages 0, 1 and 2 agree (d_0 = d_1 = 0), so only a
    # doctored page 2 tells the E_2 verdict's page apart.
    (
        "highest-row-as-the-low",
        "linalg.py",
        _LOW,
        _LOW.replace("max(r", "min(r"),
        _ENGINE,
    ),
    # A column left with one entry is divided by its absolute value, so
    # that it stays a positive multiple of the full reduction's column.
    (
        "single-entry-normalisation-drops-the-abs",
        "linalg.py",
        "g = abs(x)",
        "g = x",
        _ENGINE,
    ),
    (
        "cancel-at-the-gap-itself",
        "engine.py",
        "cells[bisect_left(gaps, r)]",
        "cells[bisect_left(gaps, r + 1)]",
        _ENGINE,
    ),
    (
        "stable-at-max-gap",
        "engine.py",
        "return pages, gaps[-1] + 1 if gaps else 0",
        "return pages, gaps[-1] if gaps else 0",
        _ENGINE,
    ),
    (
        "E2-verdict-reads-page-1",
        "verify.py",
        "actual = pages[2].cell_dims()",
        "actual = pages[1].cell_dims()",
        _VERIFY,
    ),
    # The eta forms of the harmonic basis, written in closed form.
    (
        "eta-closed-form-sign",
        "verify.py",
        "(-1) ** (q - 1 + m)",
        "(-1) ** (q + m)",
        _STAR,
    ),
    # The root parser reports what the subcommand's parser leaves over.
    (
        "leftover-arguments-ignored",
        "cli.py",
        "            if not rest:\n                return handler(args)\n",
        "            return handler(args)\n",
        _CLI,
    ),
    # The exterior-algebra signs and the pair insertion.  Shifting the merge
    # mask by y + 1 is an equivalent mutant: y is not an index of a.
    (
        "merge-parity-below-y",
        "exterior.py",
        "parity += (mask >> y).bit_count()",
        "parity += (mask & ((1 << y) - 1)).bit_count()",
        _EXTERIOR,
    ),
    (
        "merge-all-below-sign-ignores-a",
        "exterior.py",
        "len(a) & len(b) & 1",
        "len(b) & 1",
        _EXTERIOR,
    ),
    (
        "complement-parity-off-by-one-per-index",
        "exterior.py",
        "(sum(idx) - k * (k - 1) // 2) & 1",
        "(sum(idx) - k * (k + 1) // 2) & 1",
        _EXTERIOR,
    ),
    (
        "subset-sign-off-by-one-per-index",
        "exterior.py",
        "(sum(subset) - k * (k + 1) // 2) & 1",
        "(sum(subset) - k * (k - 1) // 2) & 1",
        _EXTERIOR,
    ),
    # Results set in order without an accumulator where terms cannot collide.
    (
        "star-terms-in-input-order",
        "exterior.py",
        "for idx, c in reversed(a.terms):",
        "for idx, c in a.terms:",
        _EXTERIOR,
    ),
    (
        "wedge-keeps-overlapping-products",
        "exterior.py",
        "merged = _merge_sign(ia, ib)",
        "merged = _merge_sign(ia, ib) or (tuple(sorted(ia + ib)), 1)",
        _EXTERIOR,
    ),
    (
        "one-term-wedge-path-for-two-multi-term-factors",
        "exterior.py",
        "if len(a.terms) == 1 or len(b.terms) == 1:",
        "if len(a.terms) == 1 or len(b.terms) >= 1:",
        _EXTERIOR,
    ),
    (
        "pair-insertion-sign-at-odd-i",
        "exterior.py",
        "acc[key] = c if prev is None else prev + c\n    return acc\n\n\ndef _require_transverse",
        "acc[key] = (-c if i % 2 else c) if prev is None else prev + (-c if i % 2 else c)\n"
        "    return acc\n\n\ndef _require_transverse",
        _EXTERIOR,
    ),
    # The primitive decomposition on {idx: c} maps.
    (
        "beta-0-dropped",
        "exterior.py",
        "out.append((0, Multivector._trusted(a.frame, a.degree, rest)))",
        "pass",
        _EXTERIOR,
    ),
    (
        "decomposition-adds-the-image-back",
        "exterior.py",
        "rest[idx] = -c if prev is None else prev - c",
        "rest[idx] = c if prev is None else prev + c",
        _EXTERIOR,
    ),
    # Whole-number coefficients held as ints.
    (
        "make-keeps-the-numerator-of-every-fraction",
        "exterior.py",
        "c = c.numerator if c.denominator == 1 else c",
        "c = c.numerator",
        _EXTERIOR,
    ),
    (
        "scaled-int-path-drops-the-sign",
        "exterior.py",
        "c = c if isinstance(c, (int, Fraction)) else Fraction(c)",
        "c = abs(c) if isinstance(c, int) else c if isinstance(c, Fraction) else Fraction(c)",
        _EXTERIOR,
    ),
    (
        "scaled-minus-one-is-self",
        "exterior.py",
        "return _form(self.frame, self.degree, tuple((idx, -v) for idx, v in self.terms))",
        "return self",
        _EXTERIOR,
    ),
]


def run(file: str, snippet: str, replacement: str, tests: list[str]) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        path = copy / "src" / "specseq" / file
        text = path.read_text()
        if text.count(snippet) != 1:
            return f"STALE: the snippet occurs {text.count(snippet)} times in {file}"
        path.write_text(text.replace(snippet, replacement))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rfE",
             "--hypothesis-seed=0", *tests],
            cwd=copy,
            env={**os.environ, "PYTHONPATH": str(copy / "src")},
            capture_output=True,
            text=True,
        )
    failed = [
        line.split()[1] for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))
    ]
    if failed:
        more = f" and {len(failed) - 1} more" if len(failed) > 1 else ""
        return f"caught by {failed[0]}{more}"
    if proc.returncode == 0:
        return "SURVIVED"
    return f"ERROR: pytest exited with {proc.returncode}"


def main(names: list[str]) -> int:
    known = {m[0] for m in MUTANTS}
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"unknown mutant: {', '.join(unknown)}", file=sys.stderr)
        return 2
    bad = 0
    for name, file, snippet, replacement, tests in MUTANTS:
        if names and name not in names:
            continue
        outcome = run(file, snippet, replacement, tests)
        bad += not outcome.startswith("caught")
        print(f"{name}: {outcome}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
