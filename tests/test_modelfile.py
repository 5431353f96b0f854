import json
from fractions import Fraction

import pytest

from specseq import modelfile
from specseq.invariant import betti_numbers
from specseq.linalg import Matrix
from specseq.modelfile import (
    MAX_CHAIN_DIM,
    MAX_FILE_BYTES,
    MAX_RATIONAL_BITS,
    ModelFileError,
    dump_model,
    from_module,
    parse_model,
    to_complex,
)
from specseq.presets import PRESETS

from model_oracle import module_from_matrices


def test_roundtrip_presets():
    for name, mf in PRESETS.items():
        assert parse_model(dump_model(mf)) == mf, name


def test_to_complex_hopf():
    c = to_complex(PRESETS["hopf-s3"])
    assert betti_numbers(c) == (1, 0, 0, 1)


def test_parse_minimal():
    text = json.dumps(
        {
            "n": 1,
            "s": 1,
            "lambdas": ["1"],
            "dims": [1, 0, 1],
            "L": [[["1"]], [], []],
        }
    )
    mf = parse_model(text)
    assert mf.base.n == 1
    assert mf.base.L_maps[0].entries == ((1,),)


def test_parse_rejects_bad_json():
    with pytest.raises(ModelFileError, match="JSON"):
        parse_model("{not json")


def test_parse_rejects_missing_field():
    with pytest.raises(ModelFileError, match="lambdas"):
        parse_model(json.dumps({"n": 1, "s": 1, "dims": [1, 0, 1], "L": []}))


def test_parse_rejects_bad_rational():
    text = json.dumps(
        {"n": 1, "s": 1, "lambdas": ["1/0"], "dims": [1, 0, 1], "L": [[["1"]], [], []]}
    )
    with pytest.raises(ModelFileError, match="lambdas"):
        parse_model(text)


def test_parse_rejects_float_entries():
    text = json.dumps(
        {"n": 1, "s": 1, "lambdas": [0.5], "dims": [1, 0, 1], "L": [[["1"]], [], []]}
    )
    with pytest.raises(ModelFileError, match="rationals must be strings"):
        parse_model(text)


def _hopf_text(lambda_text):
    # Raw text, so the entry can be any JSON value, even one json.dumps refuses.
    return (
        '{"n": 1, "s": 1, "lambdas": [' + lambda_text + '], '
        '"dims": [1, 0, 1], "L": [[["1"]], [], []]}'
    )


@pytest.mark.parametrize(
    "value",
    [
        '"1e100000"',
        '"1e-1_000_000"',
        '"18446744073709551616"',
        '"-1/18446744073709551616"',
        "18446744073709551616",
    ],
)
def test_parse_rejects_rationals_above_the_bit_cap(value):
    assert MAX_RATIONAL_BITS == 64
    with pytest.raises(ModelFileError, match=r"lambdas\[0\]: .* above 64 bits"):
        parse_model(_hopf_text(value))


@pytest.mark.parametrize(
    "value, expected",
    [
        ('"18446744073709551615"', 2**64 - 1),
        ('"-1/18446744073709551615"', Fraction(-1, 2**64 - 1)),
        ('"1e19"', 10**19),
        ('"25e-0002"', Fraction(1, 4)),
    ],
)
def test_parse_accepts_rationals_at_the_bit_cap(value, expected):
    assert parse_model(_hopf_text(value)).lambdas == (expected,)


@pytest.mark.parametrize("value", ["1e99999", "1E+00099999", "-1e-9_9999"])
def test_a_long_exponent_is_refused_before_any_fraction_is_built(monkeypatch, value):
    # "1e99999" names a 332,190-bit number, and Fraction would build it whole
    # before the bit cap could refuse it: it is refused by its exponent alone.
    built = []
    monkeypatch.setattr(modelfile, "Fraction", lambda *a: built.append(a) or Fraction(*a))
    with pytest.raises(ModelFileError, match=r"^x: .* above 64 bits$"):
        modelfile.parse_rational(value, "x")
    assert built == []
    assert modelfile.parse_rational("1e19", "x") == 10**19 and built == [("1e19",)]


def test_parse_rejects_integer_past_the_digit_limit():
    with pytest.raises(ModelFileError, match="JSON"):
        parse_model(_hopf_text("1" * 5000))


def test_parse_rejects_wrong_matrix_shape():
    text = json.dumps(
        {"n": 1, "s": 1, "lambdas": ["1"], "dims": [1, 0, 1], "L": [[], [], []]}
    )
    with pytest.raises(ModelFileError, match=r"L\[0\]"):
        parse_model(text)


def test_parse_rejects_wrong_dims_length():
    text = json.dumps(
        {"n": 2, "s": 1, "lambdas": ["1"], "dims": [1, 0, 1], "L": [[], [], []]}
    )
    with pytest.raises(ModelFileError, match="dims"):
        parse_model(text)


def test_from_module_roundtrip(cp1):
    mf = from_module(cp1, 1, (1,), name="x")
    assert parse_model(dump_model(mf)) == mf
    assert mf.s == 1
    assert mf.base.dims == (1, 0, 1)


def test_a_model_at_the_caps_fits_the_file_byte_limit():
    # The most L entries a file can have: s = 1 and dims (256, 0, 256), so
    # 2 * 512 chain dimensions, every entry a rational at the bit cap.
    size = MAX_CHAIN_DIM // 4
    widest = Fraction(-(2**MAX_RATIONAL_BITS - 1), 2**MAX_RATIONAL_BITS - 2)
    L = (Matrix(size, size, ((widest,) * size,) * size), Matrix.zero(0, 0), Matrix.zero(0, size))
    base = module_from_matrices(1, (size, 0, size), L)
    mf = from_module(base, 1, (1,), name="widest", description="L at the entry and bit caps")
    text = dump_model(mf)
    assert len(text.encode()) <= MAX_FILE_BYTES - 2**20
    assert parse_model(text) == mf


def test_mixed_denominators_roundtrip_byte_for_byte():
    # L_0 over 2 and 3, L_1 integral and L_2 over 4: the columns of every
    # degree over the least common denominator 12, written back unchanged.
    data = {
        "name": "mixed",
        "description": "",
        "n": 2,
        "s": 2,
        "lambdas": ["1", "-2/5"],
        "dims": [2, 1, 2, 1, 1],
        "L": [[["1/2", "0"], ["-2/3", "5"]], [["3"]], [["0", "-7/4"]], [], []],
    }
    text = json.dumps(data, indent=2) + "\n"
    mf = parse_model(text)
    assert mf.base.den == 12
    assert mf.base.L == ([{0: 6, 1: -8}, {1: 60}], [{0: 36}], [{}, {0: -21}], [{}], [{}])
    assert dump_model(mf) == text
    assert parse_model(dump_model(mf)) == mf
