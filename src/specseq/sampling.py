"""Seeded random models for the verification suites.

Sizes are deliberately small: the theorems quantify over structure, not
scale, and exact arithmetic rewards modest chain dimensions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .invariant import InvariantComplex, build_model
from .lefschetz import LefschetzModule, generate_hlp_module, zero_l_block

# Relative weights of the primitive dimensions 0, 1, 2, ... in one degree; a
# config may not ask for a dimension that has no weight.
PRIMITIVE_DIM_WEIGHTS = (4, 3, 1)
MAX_PRIMITIVE_DIM = len(PRIMITIVE_DIM_WEIGHTS) - 1
# Cap on the summed base dims of a sampled module.
TOTAL_DIM_CAP = 12


@dataclass(frozen=True)
class SampleConfig:
    n_max: int = 4
    s_max: int = 3
    max_primitive_dim: int = 2

    def __post_init__(self):
        if not 0 <= self.max_primitive_dim <= MAX_PRIMITIVE_DIM:
            raise ValueError(
                f"max_primitive_dim must be between 0 and {MAX_PRIMITIVE_DIM}, "
                f"got {self.max_primitive_dim}"
            )


def sample_primitive_dims(rng: random.Random, n: int, cfg: SampleConfig) -> tuple[int, ...]:
    weights = PRIMITIVE_DIM_WEIGHTS[: cfg.max_primitive_dim + 1]
    while True:
        pdims = [1] + [
            rng.choices(range(cfg.max_primitive_dim + 1), weights=weights)[0] for _ in range(n)
        ]
        # Each degree-j primitive block of dim m contributes m*(n-j+1) basis
        # classes to the free module.
        total = sum(m * (n - j + 1) for j, m in enumerate(pdims))
        if total <= TOTAL_DIM_CAP:
            return tuple(pdims)


def sample_hlp_base(rng: random.Random, cfg: SampleConfig = SampleConfig()) -> LefschetzModule:
    n = rng.randint(1, cfg.n_max)
    pdims = sample_primitive_dims(rng, n, cfg)
    return generate_hlp_module(rng.getrandbits(32), n, pdims)


def sample_base(rng: random.Random, cfg: SampleConfig = SampleConfig()) -> LefschetzModule:
    """A base that is hard Lefschetz about half the time."""
    base = sample_hlp_base(rng, cfg)
    if rng.random() < 0.5:
        p = rng.randrange(2 * base.n + 1)
        base = zero_l_block(base, p)
    return base


def random_rational(rng: random.Random) -> Fraction:
    num = rng.randint(-3, 3)
    den = rng.randint(1, 3)
    return Fraction(num, den)


def sample_model(
    rng: random.Random, kind: str, cfg: SampleConfig = SampleConfig()
) -> InvariantComplex:
    """kind: 'S' (lambdas all 1, HLP base), 'C' (all 0, any base),
    'mixed' (arbitrary rational lambdas, any base)."""
    s = rng.randint(1, cfg.s_max)
    if kind == "S":
        base = sample_hlp_base(rng, cfg)
        lambdas = [Fraction(1)] * s
    elif kind == "C":
        base = sample_base(rng, cfg)
        lambdas = [Fraction(0)] * s
    elif kind == "mixed":
        base = sample_base(rng, cfg)
        lambdas = [random_rational(rng) for _ in range(s)]
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    return build_model(base, s, lambdas)
