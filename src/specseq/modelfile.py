"""Model file format: exact serialization of a base module plus lambdas.

Files are JSON with every rational written as a "num/den" (or plain "num")
string, so nothing ever passes through floating point.  Schema:

    {
      "name": "hopf-s3",            # optional
      "description": "...",         # optional
      "n": 1,
      "s": 1,
      "lambdas": ["1"],             # s entries
      "dims": [1, 0, 1],            # 2n+1 entries
      "L": [ [["1"]], [], [] ]      # per degree p, a dims[p+2] x dims[p]
    }                               # matrix as rows (empty when 0 rows)

A parsed file is a `ModelFile`: the base module (`LefschetzModule`, which
holds n, dims and the L matrices as integer columns over their least
common denominator), s, the lambdas, the name and the description.  Any
other key is ignored.  Parse errors raise ModelFileError naming the
offending field.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .invariant import InvariantComplex, build_model
from .lefschetz import LefschetzModule


class ModelFileError(ValueError):
    """The file does not describe a valid model."""


# Largest total chain dimension 2^s * sum(dims) a model file may ask for.  The
# presets, the `generate` command (at most 2^4 * 12) and the sampled suites
# (at most 2^3 * 12) stay well below it.  The check runs before anything is
# allocated, so a tiny file cannot ask for 2^30 basis elements.
MAX_CHAIN_DIM = 1024

# Largest bit length of the numerator and of the denominator of a rational in
# a model file.  The presets and the generated models use at most 4 bits.
MAX_RATIONAL_BITS = 64

# Largest model file `load_model` reads, in bytes; a larger one is refused
# after reading one byte past this limit.  With s >= 1, sum(dims) is at most
# MAX_CHAIN_DIM / 2, so the L matrices have at most (MAX_CHAIN_DIM / 4)^2
# entries in all (sum_p dims[p+2] dims[p] <= sum(dims)^2 / 4).  Each entry
# is at most a sign, two numbers of MAX_RATIONAL_BITS bits and a slash, in
# quotes and followed by a comma, with 16 bytes for indentation and line
# breaks (`dump_model` uses 9).  Another MiB allows for the name, the
# description, any key the parser ignores and the rest of the layout.
_ENTRY_BYTES = 2 * len(str(2**MAX_RATIONAL_BITS - 1)) + 5 + 16
MAX_FILE_BYTES = (MAX_CHAIN_DIM // 4) ** 2 * _ENTRY_BYTES + 2**20

# `load_model` reads this much first: a read of n bytes allocates n bytes
# up front, which for the whole limit costs more than reading a typical
# model file.
_FIRST_READ = 2**16

# The decimal exponent of a rational string, e.g. "1e100000".
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ModelFile:
    base: LefschetzModule
    s: int
    lambdas: tuple[Fraction, ...]
    name: str = ""
    description: str = ""


def parse_rational(value, where: str) -> Fraction:
    """A rational from a string like "3/2" or an integer; errors name `where`."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ModelFileError(f"{where}: rationals must be strings like \"3/2\" or integers")
    # A short string can name a huge number: "1e100000" has 332,193 bits, so a
    # long decimal exponent is refused before Fraction expands it.
    exponent = _EXPONENT.search(value) if isinstance(value, str) else None
    x = None
    if exponent is None or len(exponent.group(1).replace("_", "").lstrip("0")) <= 4:
        try:
            x = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ModelFileError(f"{where}: bad rational {value!r}: {exc}") from None
    if x is None or max(x.numerator.bit_length(), x.denominator.bit_length()) > MAX_RATIONAL_BITS:
        raise ModelFileError(
            f"{where}: {value!r} has a numerator or denominator above {MAX_RATIONAL_BITS} bits"
        )
    return x


def parse_model(text: str) -> ModelFile:
    try:
        data = json.loads(text)
    # ValueError also covers an integer literal past Python's digit limit, and
    # RecursionError arrays or objects nested past the interpreter's stack.
    except (ValueError, RecursionError) as exc:
        raise ModelFileError(f"not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ModelFileError("top level must be an object")
    for key in ("n", "s", "lambdas", "dims", "L"):
        if key not in data:
            raise ModelFileError(f"missing required field {key!r}")
    n, s = data["n"], data["s"]
    if not _is_int(n) or n < 0:
        raise ModelFileError("n: must be a non-negative integer")
    if not _is_int(s) or s < 1:
        raise ModelFileError("s: must be a positive integer")
    dims = data["dims"]
    if (
        not isinstance(dims, list)
        or len(dims) != 2 * n + 1
        or any(not _is_int(d) or d < 0 for d in dims)
    ):
        raise ModelFileError(f"dims: expected a list of {2 * n + 1} non-negative integers")
    dims = tuple(dims)
    # The model walks all 2^s eta subsets even where dims vanish, so an empty
    # base counts as 1; a large s is refused before 2^s is computed.
    size = max(sum(dims), 1)
    if s >= MAX_CHAIN_DIM.bit_length() or 2**s * size > MAX_CHAIN_DIM:
        raise ModelFileError(
            f"s, dims: total chain dimension 2^{s} * {size} is above the limit {MAX_CHAIN_DIM}"
        )
    lambdas = data["lambdas"]
    if not isinstance(lambdas, list) or len(lambdas) != s:
        raise ModelFileError(f"lambdas: expected a list of {s} rationals")
    lambdas = tuple(parse_rational(x, f"lambdas[{i}]") for i, x in enumerate(lambdas))
    raw_l = data["L"]
    if not isinstance(raw_l, list) or len(raw_l) != 2 * n + 1:
        raise ModelFileError(f"L: expected a list of {2 * n + 1} matrices")
    entries = []  # (p, i, j, x) per nonzero entry x of L[p] at row i, column j
    for p, rows in enumerate(raw_l):
        want_rows = dims[p + 2] if p + 2 <= 2 * n else 0
        want_cols = dims[p]
        if not isinstance(rows, list) or len(rows) != want_rows:
            raise ModelFileError(f"L[{p}]: expected {want_rows} rows")
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != want_cols:
                raise ModelFileError(f"L[{p}][{i}]: expected {want_cols} entries")
            for j, raw in enumerate(row):
                x = parse_rational(raw, f"L[{p}][{i}][{j}]")
                if x:
                    entries.append((p, i, j, x))
    # Every column over the least common denominator, its rows ascending.
    den = lcm(*(x.denominator for *_, x in entries))
    L = tuple([{} for _ in range(d)] for d in dims)
    for p, i, j, x in entries:
        L[p][j][i] = x.numerator * (den // x.denominator)
    name = data.get("name", "")
    description = data.get("description", "")
    if not isinstance(name, str) or not isinstance(description, str):
        raise ModelFileError("name and description must be strings")
    return ModelFile(LefschetzModule(n, dims, L, den), s, lambdas, name, description)


def load_model(path: str) -> ModelFile:
    """The model in the file at `path`, read only up to MAX_FILE_BYTES."""
    try:
        with open(path, "rb") as fh:
            data = fh.read(_FIRST_READ)
            if len(data) == _FIRST_READ:
                data += fh.read(MAX_FILE_BYTES + 1 - _FIRST_READ)
    except OSError as exc:
        raise ModelFileError(f"cannot read {path}: {exc}") from None
    if len(data) > MAX_FILE_BYTES:
        raise ModelFileError(f"{path} is larger than the limit of {MAX_FILE_BYTES} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFileError(f"{path} is not UTF-8 text: {exc}") from None
    return parse_model(text)


def dump_model(mf: ModelFile) -> str:
    base = mf.base
    data = {
        "name": mf.name,
        "description": mf.description,
        "n": base.n,
        "s": mf.s,
        "lambdas": [str(x) for x in mf.lambdas],
        "dims": list(base.dims),
        "L": [
            [[str(Fraction(col.get(i, 0), base.den)) for col in cols] for i in range(base.dim_at(p + 2))]
            for p, cols in enumerate(base.L)
        ],
    }
    return json.dumps(data, indent=2) + "\n"


def to_complex(mf: ModelFile) -> InvariantComplex:
    return build_model(mf.base, mf.s, mf.lambdas)


def from_module(
    base: LefschetzModule,
    s: int,
    lambdas,
    name: str = "",
    description: str = "",
) -> ModelFile:
    return ModelFile(base, s, tuple(Fraction(x) for x in lambdas), name, description)
