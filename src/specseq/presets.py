"""Preset models with known de Rham Betti numbers.

Each preset is a standard textbook example: the base is the basic
cohomology with its Lefschetz operator, and the lambdas pick the S-type
(d eta_i = omega) or C-type (d eta_i = 0) structure.  Each L_p is written
as its integer columns, {row of H^{p+2}: entry} per basis class of H^p;
every preset's L is whole, so its denominator is 1.
"""

from __future__ import annotations

from fractions import Fraction

from .lefschetz import LefschetzModule
from .modelfile import ModelFile, from_module

_ONE = Fraction(1)


def _cp1() -> LefschetzModule:
    return LefschetzModule(1, (1, 0, 1), ([{0: 1}], [], [{}]))


def _cp2() -> LefschetzModule:
    return LefschetzModule(2, (1, 0, 1, 0, 1), ([{0: 1}], [], [{0: 1}], [], [{}]))


def _s2xs2() -> LefschetzModule:
    # H^2 basis: (omega class, primitive class); L kills the primitive part.
    return LefschetzModule(2, (1, 0, 2, 0, 1), ([{0: 1}], [], [{0: 1}, {}], [], [{}]))


def _t2() -> LefschetzModule:
    return LefschetzModule(1, (1, 2, 1), ([{0: 1}], [{}, {}], [{}]))


def build_presets() -> dict[str, ModelFile]:
    return {
        "hopf-s3": from_module(
            _cp1(), 1, (_ONE,), "hopf-s3", "S^3 as the Hopf circle bundle over CP^1 (S-type)"
        ),
        "s5": from_module(
            _cp2(), 1, (_ONE,), "s5", "S^5 as the circle bundle over CP^2 (S-type)"
        ),
        "s2xs3": from_module(
            _s2xs2(), 1, (_ONE,), "s2xs3", "S^2 x S^3 over the S^2 x S^2 base (S-type)"
        ),
        "torus-t3": from_module(
            _t2(), 1, (Fraction(0),), "torus-t3", "T^3 as a flat circle bundle over T^2 (C-type)"
        ),
        "torus-t4": from_module(
            _t2(),
            2,
            (Fraction(0), Fraction(0)),
            "torus-t4",
            "T^4 with two flat circle directions over T^2 (C-type)",
        ),
        "s3xs1": from_module(
            _cp1(),
            2,
            (_ONE, _ONE),
            "s3xs1",
            "S^3 x S^1 with two contact-like directions over CP^1 (S-type)",
        ),
    }


PRESETS = build_presets()
