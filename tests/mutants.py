"""Mutation check: does some test fail on each recorded mutant of the package?

    python tests/mutants.py              # every mutant
    python tests/mutants.py e-power ...  # the named ones

Each mutant replaces one snippet of the source of `src/specseq`.  The
package, the tests and `pyproject.toml` are copied into a temporary
directory, the snippet is replaced in the copy, and pytest runs there with a
fixed Hypothesis seed.  The copy's conftest loads a Hypothesis profile
without the shrink phase, since a catch needs only the first failing
example, not its smallest form; the working tree, tier-1's own Hypothesis
settings included, is never written.  Each mutant records the test that
catches it, which runs first, with `-x`; only when that test passes do the
mutant's whole test files run.  One line per mutant: "caught by" and the
test that failed first (for a catch by the whole files, with the number of
the others and the recorded test that missed it), "SURVIVED" when every
test passed, or "STALE" when the snippet is not in the source exactly once.
The exit status is 1 when any mutant survived, is stale, or was caught only
by the whole files, whose first failing test should then be recorded
instead.

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
_LEFSCHETZ = ["tests/test_lefschetz.py"]
_MODELFILE = ["tests/test_modelfile.py", "tests/test_cli.py"]
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

# Appended to the copy's tests/conftest.py, which pytest imports before any
# test module, so that every test's settings inherit the profile.
_NO_SHRINK = """

from hypothesis import Phase, settings

settings.register_profile(
    "mutants", phases=[p for p in Phase if p not in (Phase.shrink, Phase.explain)]
)
settings.load_profile("mutants")
"""

# (name, file under src/specseq, snippet, replacement, tests to run, the
# test among them that catches the mutant, run first)
MUTANTS = [
    # lefschetz_decompose_class on the integer columns.
    (
        "e-power",
        "lefschetz.py",
        "beta.get(j, 0) * e**i, scale",
        "beta.get(j, 0), scale",
        _DECOMPOSE,
        "tests/test_lefschetz.py::test_decompose_reconstruct_roundtrip",
    ),
    (
        "scale-sign",
        "lefschetz.py",
        "scale = -w[len(cols) - 1] * den",
        "scale = w[len(cols) - 1] * den",
        _DECOMPOSE,
        "tests/test_lefschetz.py::test_decompose_trivial_cases",
    ),
    # Allowing i > n - d instead is an equivalent mutant: those pieces
    # L^i beta are zero columns, which take no part in the reduction.
    (
        "i-at-n-minus-d-dropped",
        "lefschetz.py",
        "if i > n - d:  # d > n, or L^i kills PH^d",
        "if i >= n - d:",
        _DECOMPOSE,
        "tests/test_lefschetz.py::test_decompose_trivial_cases",
    ),
    (
        "v-first",
        "lefschetz.py",
        "cols.append({j: (x * den).numerator for j, x in enumerate(v) if x})",
        "cols.insert(0, {j: (x * den).numerator for j, x in enumerate(v) if x})",
        _DECOMPOSE,
        "tests/test_lefschetz.py::test_decompose_trivial_cases",
    ),
    # The Lefschetz structure: the star images L^{n-d} beta and Ker L.
    (
        "star-images-one-power-too-high",
        "lefschetz.py",
        "apply_columns(powers[p][n - p], beta)",
        "apply_columns(powers[p][n - p + 1], beta)",
        _STAR,
        "tests/test_verify.py::test_the_verifiers_reduce_each_differential_once",
    ),
    # Hard Lefschetz from the dims and the star images of the PH^{n-k} basis.
    (
        "hlp-ignores-asymmetric-dims",
        "lefschetz.py",
        "if dims[n + k] != dims[n - k] or not all(",
        "if not all(",
        _LEFSCHETZ,
        "tests/test_lefschetz.py::test_arbitrary_modules_match_the_dense_oracle",
    ),
    (
        "hlp-reads-the-primitive-basis",
        "lefschetz.py",
        "reduce_columns(star[n - k], with_v=False)",
        "reduce_columns(primitive[n - k], with_v=False)",
        _LEFSCHETZ,
        "tests/test_lefschetz.py::test_check_hlp_zero_L_fails",
    ),
    (
        "kernel-L-vector-dropped",
        "lefschetz.py",
        "kernel = tuple(_kernel(cols) for cols in L)",
        "kernel = tuple(_kernel(cols)[1:] for cols in L)",
        _STAR,
        "tests/test_verify.py::test_mainS_checks_ker_d2_cell_by_cell",
    ),
    # The module's integer columns of L: generated by conjugation with an
    # integer inverse, parsed over one denominator, and kept only in their
    # least form.
    (
        "unipotent-inverse-sign-dropped",
        "lefschetz.py",
        "rest[i] = rest.get(i, 0) - x * y",
        "rest[i] = rest.get(i, 0) + x * y",
        _LEFSCHETZ,
        "tests/test_lefschetz.py::test_generated_modules_match_the_dense_conjugation",
    ),
    (
        "non-least-den-accepted",
        "lefschetz.py",
        "        if g != 1:\n            raise ValueError(f\"den {self.den} is not the least",
        "        if False:\n            raise ValueError(f\"den {self.den} is not the least",
        _LEFSCHETZ,
        "tests/test_lefschetz.py::test_the_constructor_refuses_malformed_columns",
    ),
    (
        "parse-keeps-the-numerator",
        "modelfile.py",
        "L[p][j][i] = x.numerator * (den // x.denominator)",
        "L[p][j][i] = x.numerator",
        _MODELFILE,
        "tests/test_modelfile.py::test_mixed_denominators_roundtrip_byte_for_byte",
    ),
    # A decimal exponent of 5 digits or more is refused before Fraction
    # expands it; a guard at 6 digits refuses the same, only later.
    (
        "exponent-guard-at-6-digits",
        "modelfile.py",
        '.lstrip("0")) <= 4:',
        '.lstrip("0")) <= 6:',
        _MODELFILE,
        "tests/test_modelfile.py::test_a_long_exponent_is_refused_before_any_fraction_is_built",
    ),
    # Star duality's ranks from the engine's boundaries, and the dense views.
    (
        "drop-a-boundary-pivot",
        "verify.py",
        "boundaries = c.filtered_complex.boundaries[k2]",
        "boundaries = dict(list(c.filtered_complex.boundaries[k2].items())[1:])",
        _STAR,
        "tests/test_verify.py::test_the_verifiers_reduce_each_differential_once",
    ),
    (
        "boundaries-one-degree-down",
        "verify.py",
        "boundaries = c.filtered_complex.boundaries[k2]",
        "boundaries = c.filtered_complex.boundaries[k2 - 1]",
        _STAR,
        "tests/test_verify.py::test_the_verifiers_reduce_each_differential_once",
    ),
    # The star images' own reduction is skipped only when they add as many
    # classes to part A's as there are images.
    (
        "rank-img-shortcut-always",
        "verify.py",
        "if added == len(closed):",
        "if True:",
        _STAR,
        "tests/test_verify.py::test_star_duality_witnesses_part_a_meeting_the_star_images",
    ),
    (
        "engine-view-den-plus-one",
        "engine.py",
        "from_integer_columns(cols, self.dim(k + 1), den)",
        "from_integer_columns(cols, self.dim(k + 1), den + 1)",
        _VIEWS,
        "tests/test_invariant.py::test_build_model_matches_the_dense_oracle",
    ),
    (
        "row-index-at-the-target-dimension",
        "engine.py",
        "or not 0 <= i < rows:",
        "or not 0 <= i <= rows:",
        _VIEWS,
        "tests/test_engine.py::test_integer_columns_of_the_wrong_shape_are_refused_before_any_reduction",
    ),
    # The layout: each block eta_I (x) H^p starts where the one before ends.
    (
        "running-offset-steps-by-one",
        "invariant.py",
        "size += base.dims[p]",
        "size += 1",
        _VIEWS,
        "tests/test_invariant.py::test_offsets_lay_out_the_blocks_in_order_at_running_offsets",
    ),
    # The dense oracle enumerates its own basis, so it sees the block order.
    (
        "layout-reverses-the-eta-subsets",
        "invariant.py",
        "for subset in itertools.combinations(range(1, s + 1), q):",
        "for subset in reversed(list(itertools.combinations(range(1, s + 1), q))):",
        _VIEWS,
        "tests/test_invariant.py::test_build_model_matches_the_dense_oracle",
    ),
    # The engine reduces in basis order, so it must refuse any other order.
    (
        "basis-order-unchecked",
        "engine.py",
        "if any(a < b for a, b in zip(src, src[1:])):",
        "if False:",
        _ENGINE,
        "tests/test_invariant.py::test_reductions_of_a_reordered_basis_are_not_handed_over",
    ),
    # The reductions that the pages and H^k read, which the engine certifies
    # (`engine._certify`) before it uses them.
    (
        "dropped-v-update",
        "linalg.py",
        "                v = _combine(a, v, c, reduced_v[low])\n",
        "                pass\n",
        _ENGINE,
        "tests/test_linalg.py::test_cleared_columns_are_not_reduced",
    ),
    (
        "clear-at-the-columns-not-the-lows",
        "engine.py",
        "cleared = {low: R[j] for low, j in lows.items()}",
        "cleared = {j: R[j] for low, j in lows.items()}",
        _ENGINE,
        "tests/test_engine.py::test_rank_engine_matches_oracle",
    ),
    # The certificate of the reductions, each check dropped in turn.
    (
        "certificate-skips-the-cleared-columns",
        "engine.py",
        "if j in cleared:",
        "if False:",
        _ENGINE,
        "tests/test_invariant.py::test_cohomology_refuses_d_squared_nonzero",
    ),
    (
        "certificate-skips-triangularity",
        "engine.py",
        "if not v.get(j) or (len(v) > 1 and max(v) != j):",
        "if False:",
        _ENGINE,
        "tests/test_engine.py::test_doctored_reductions_fail_the_certificate",
    ),
    (
        "certificate-skips-r-equals-d-v",
        "engine.py",
        "elif r != (col if len(v) == 1 and v[j] == 1 else apply_columns(cols, v)):",
        "elif False:",
        _ENGINE,
        "tests/test_engine.py::test_doctored_reductions_fail_the_certificate",
    ),
    (
        "certificate-drops-the-lows-check",
        "engine.py",
        "if lows != found:",
        "if False:",
        _ENGINE,
        "tests/test_engine.py::test_doctored_reductions_fail_the_certificate",
    ),
    # The boundaries the engine cleared with, one per low of d_{k-1}, and
    # H^k counted from the lows: rank d_{k-1} is a number of boundaries.
    (
        "boundary-counted-as-a-class",
        "engine.py",
        "{low: V[low] for low in reductions[k - 1][2]}",
        "{low: V[low] for low in list(reductions[k - 1][2])[1:]}",
        _VIEWS,
        "tests/test_invariant.py::test_cohomology_matches_the_quotient_oracle",
    ),
    (
        "betti-drops-the-lower-rank",
        "invariant.py",
        "len(R) - len(lows) - (len(reductions[k - 1][2]) if k else 0)",
        "len(R) - len(lows)",
        _VIEWS + ["tests/test_acceptance.py::test_criterion_5_presets"],
        "tests/test_acceptance.py::test_criterion_5_presets",
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
        "tests/test_engine.py::test_rank_engine_matches_oracle",
    ),
    # A column left with one entry is divided by its absolute value, so
    # that it stays a positive multiple of the full reduction's column.
    (
        "single-entry-normalisation-drops-the-abs",
        "linalg.py",
        "g = abs(x)",
        "g = x",
        _ENGINE,
        "tests/test_linalg.py::test_reduction_without_v_keeps_the_zero_columns_and_the_lows",
    ),
    # Each reduced column, with its V column, is divided by its content; kept,
    # the answers stay the same and only the integers grow.
    (
        "reduced-columns-keep-their-content",
        "linalg.py",
        "        if g != 1:\n",
        "        if False:\n",
        _ENGINE,
        "tests/test_linalg.py::test_every_reduced_column_is_content_free",
    ),
    (
        "cancel-at-the-gap-itself",
        "engine.py",
        "cells[bisect_left(gaps, r)]",
        "cells[bisect_left(gaps, r + 1)]",
        _ENGINE,
        "tests/test_engine.py::test_page_turning_identity",
    ),
    (
        "stable-at-max-gap",
        "engine.py",
        "return pages, gaps[-1] + 1 if gaps else 0",
        "return pages, gaps[-1] if gaps else 0",
        _ENGINE,
        "tests/test_engine.py::test_hopf_pages",
    ),
    (
        "E2-verdict-reads-page-1",
        "verify.py",
        "actual = pages[2].cell_dims()",
        "actual = pages[1].cell_dims()",
        _VERIFY,
        "tests/test_verify.py::test_witnesses_name_cell_and_values",
    ),
    # Each verdict rule stated once: a report passes only where it applies
    # with no witness, one degeneration check, one Betti recursion and one
    # list of the verifiers `analyze` runs.
    (
        "passed-ignores-applicability",
        "verify.py",
        "return self.applicable and not self.witnesses",
        "return not self.witnesses",
        _VERIFY,
        "tests/test_verify.py::test_a_report_passes_only_where_it_applies_with_no_witness",
    ),
    (
        "degeneration-skips-the-direct-cohomology",
        "verify.py",
        'witnesses += _degree_witnesses("direct cohomology", expected, direct)',
        "pass",
        _VERIFY,
        "tests/test_verify.py::test_witnesses_name_degree_and_values",
    ),
    (
        "mainC-skips-direct",
        "verify.py",
        "_degeneration(c, expected, 2, betti_numbers(c))",
        "_degeneration(c, expected, 2, expected)",
        _VERIFY,
        "tests/test_verify.py::test_mainC_witnesses_the_direct_cohomology",
    ),
    # mainS's dim Ker d_2 on each cell: the Ker L part sits one eta higher.
    (
        "ker-d2-binomial",
        "verify.py",
        "_binom(c.s - 1, q - 1)",
        "_binom(c.s - 1, q)",
        _VERIFY,
        "tests/test_verify.py::test_mainS_checks_ker_d2_cell_by_cell",
    ),
    (
        "primitive-recursion-with-C(s)",
        "verify.py",
        '_invert(B, s - 1, n, "primitive")',
        '_invert(B, s, n, "primitive")',
        _VERIFY,
        "tests/test_verify.py::test_primitive_betti_recursion_examples",
    ),
    (
        "analyze-drops-star-duality",
        "verify.py",
        "reports += [verify_mainS(c), model_star_duality(c)]",
        "reports += [verify_mainS(c)]",
        _STAR,
        "tests/test_verify.py::test_analyze_reports_lists_the_theorems_in_order",
    ),
    # The harmonic chains the complex keeps: the eta forms, written in
    # closed form, and part B on the Ker L classes.
    (
        "eta-closed-form-sign",
        "invariant.py",
        "(-1) ** (q - 1 + m)",
        "(-1) ** (q + m)",
        _STAR,
        "tests/test_verify.py::test_the_verifiers_reduce_each_differential_once",
    ),
    (
        "part-b-on-the-primitive-classes",
        "invariant.py",
        "for kappa in columns.kernel[p]",
        "for kappa in columns.primitive[p]",
        _STAR,
        "tests/test_verify.py::test_harmonic_basis_S_hopf",
    ),
    # A Betti recursion recomputes the list from its result.
    (
        "recursion-skips-the-forward-check",
        "verify.py",
        "    if wrong:\n",
        "    if False:\n",
        _VERIFY,
        "tests/test_verify.py::test_recursions_refuse_lists_their_result_cannot_produce",
    ),
    # A failed verdict makes `analyze` exit 1.
    (
        "analyze-fail-exits-0",
        "cli.py",
        "            failed = True\n",
        "            pass\n",
        _CLI,
        "tests/test_cli.py::test_analyze_prints_a_failed_verdict_and_exits_1",
    ),
    # The root parser reports what the subcommand's parser leaves over.
    (
        "leftover-arguments-ignored",
        "cli.py",
        "            if not rest:\n                return handler(args)\n",
        "            return handler(args)\n",
        _CLI,
        "tests/test_cli.py::test_main_prints_what_the_whole_parser_prints",
    ),
    # A report is written over the old bytes and cut to its length only when
    # the target was longer.  Truncating to zero on open gives the same
    # bytes at a higher cost.
    (
        "write-truncates-on-open",
        "cli.py",
        'open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb")',
        'open(path, "wb")',
        _CLI,
        "tests/test_cli.py::test_write_opens_the_target_without_truncating_it",
    ),
    (
        "write-never-cuts-to-length",
        "cli.py",
        "                fh.truncate()\n",
        "                pass\n",
        _CLI,
        "tests/test_cli.py::test_write_gives_the_bytes_of_a_fresh_write",
    ),
    (
        "write-cuts-a-device-or-a-pipe",
        "cli.py",
        "if os.fstat(fh.fileno()).st_size > len(data):",
        "if True:",
        _CLI,
        "tests/test_cli.py::test_analyze_json_to_dev_null_exits_0",
    ),
    # The exterior-algebra signs and the pair insertion.  Shifting the merge
    # mask by y + 1 is an equivalent mutant: y is not an index of a.
    (
        "merge-parity-below-y",
        "exterior.py",
        "parity += (mask >> y).bit_count()",
        "parity += (mask & ((1 << y) - 1)).bit_count()",
        _EXTERIOR,
        "tests/test_exterior.py::test_merge_and_complement_signs_count_the_inversions",
    ),
    (
        "merge-all-below-sign-ignores-a",
        "exterior.py",
        "len(a) & len(b) & 1",
        "len(b) & 1",
        _EXTERIOR,
        "tests/test_exterior.py::test_merge_and_complement_signs_count_the_inversions",
    ),
    (
        "complement-parity-off-by-one-per-index",
        "exterior.py",
        "(sum(idx) - k * (k - 1) // 2) & 1",
        "(sum(idx) - k * (k + 1) // 2) & 1",
        _EXTERIOR,
        "tests/test_exterior.py::test_merge_and_complement_signs_count_the_inversions",
    ),
    (
        "subset-sign-off-by-one-per-index",
        "exterior.py",
        "(sum(subset) - k * (k + 1) // 2) & 1",
        "(sum(subset) - k * (k - 1) // 2) & 1",
        _EXTERIOR,
        "tests/test_exterior.py::test_star_relation_exhaustive",
    ),
    # Results set in order without an accumulator where terms cannot collide.
    (
        "star-terms-in-input-order",
        "exterior.py",
        "for idx, c in reversed(a.terms):",
        "for idx, c in a.terms:",
        _EXTERIOR,
        "tests/test_exterior.py::test_stars_match_the_complement_of_each_term",
    ),
    (
        "wedge-keeps-overlapping-products",
        "exterior.py",
        "merged = _merge_sign(ia, ib)",
        "merged = _merge_sign(ia, ib) or (tuple(sorted(ia + ib)), 1)",
        _EXTERIOR,
        "tests/test_exterior.py::test_wedge_basic",
    ),
    (
        "one-term-wedge-path-for-two-multi-term-factors",
        "exterior.py",
        "if len(a.terms) == 1 or len(b.terms) == 1:",
        "if len(a.terms) == 1 or len(b.terms) >= 1:",
        _EXTERIOR,
        "tests/test_exterior.py::test_wedge_matches_the_sum_over_term_pairs",
    ),
    (
        "pair-insertion-sign-at-odd-i",
        "exterior.py",
        "acc[key] = c if prev is None else prev + c\n    return acc\n\n\ndef _require_transverse",
        "acc[key] = (-c if i % 2 else c) if prev is None else prev + (-c if i % 2 else c)\n"
        "    return acc\n\n\ndef _require_transverse",
        _EXTERIOR,
        "tests/test_exterior.py::test_lefschetz_L_cases",
    ),
    # J on a monomial: a sign for each even index and each full pair.
    (
        "j-sign-drops-the-pair-term",
        "exterior.py",
        "-c if (evens + pairs) & 1 else c",
        "-c if evens & 1 else c",
        _EXTERIOR,
        "tests/test_exterior.py::test_j_action_cases",
    ),
    # The primitive decomposition on {idx: c} maps.
    (
        "beta-0-dropped",
        "exterior.py",
        "out.append((0, Multivector._trusted(a.frame, a.degree, rest)))",
        "pass",
        _EXTERIOR,
        "tests/test_exterior.py::test_primitive_decompose_examples",
    ),
    (
        "decomposition-adds-the-image-back",
        "exterior.py",
        "rest[idx] = -c if prev is None else prev - c",
        "rest[idx] = c if prev is None else prev + c",
        _EXTERIOR,
        "tests/test_exterior.py::test_primitive_decompose_examples",
    ),
    # Whole-number coefficients held as ints.
    (
        "make-keeps-the-numerator-of-every-fraction",
        "exterior.py",
        "c = c.numerator if c.denominator == 1 else c",
        "c = c.numerator",
        _EXTERIOR,
        "tests/test_exterior.py::test_stars_match_the_complement_of_each_term",
    ),
    (
        "scaled-int-path-drops-the-sign",
        "exterior.py",
        "c = c if isinstance(c, (int, Fraction)) else Fraction(c)",
        "c = abs(c) if isinstance(c, int) else c if isinstance(c, Fraction) else Fraction(c)",
        _EXTERIOR,
        "tests/test_exterior.py::test_mixed_int_and_fraction_coefficients_give_the_same_results",
    ),
    (
        "scaled-minus-one-is-self",
        "exterior.py",
        "return _form(self.frame, self.degree, tuple((idx, -v) for idx, v in self.terms))",
        "return self",
        _EXTERIOR,
        "tests/test_exterior.py::test_sub_and_scaled_drop_zero_terms",
    ),
]


def _pytest(copy: Path, args: list[str]) -> tuple[list[str], int]:
    """The ids of the tests that failed or errored, and pytest's exit code."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rfE",
         "--hypothesis-seed=0", *args],
        cwd=copy,
        env={**os.environ, "PYTHONPATH": str(copy / "src")},
        capture_output=True,
        text=True,
    )
    # "FAILED <test id> - <message>"; a parametrized id may hold spaces.
    failed = [
        line.split(" ", 1)[1].split(" - ")[0]
        for line in proc.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]
    return failed, proc.returncode


def run(file: str, snippet: str, replacement: str, tests: list[str], catcher: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        with open(copy / "tests" / "conftest.py", "a", encoding="utf-8") as fh:
            fh.write(_NO_SHRINK)
        path = copy / "src" / "specseq" / file
        text = path.read_text()
        if text.count(snippet) != 1:
            return f"STALE: the snippet occurs {text.count(snippet)} times in {file}"
        path.write_text(text.replace(snippet, replacement))
        failed, code = _pytest(copy, ["-x", catcher])
        if failed:
            return f"caught by {failed[0]}"
        if code != 0:
            return f"ERROR: pytest exited with {code} on {catcher}"
        failed, code = _pytest(copy, tests)
    if failed:
        more = f" and {len(failed) - 1} more" if len(failed) > 1 else ""
        return f"caught by {failed[0]}{more}, not by {catcher}"
    if code == 0:
        return "SURVIVED"
    return f"ERROR: pytest exited with {code}"


def main(names: list[str]) -> int:
    known = {m[0] for m in MUTANTS}
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"unknown mutant: {', '.join(unknown)}", file=sys.stderr)
        return 2
    bad = 0
    for name, file, snippet, replacement, tests, catcher in MUTANTS:
        if names and name not in names:
            continue
        outcome = run(file, snippet, replacement, tests, catcher)
        bad += not outcome.startswith("caught") or ", not by " in outcome
        print(f"{name}: {outcome}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
