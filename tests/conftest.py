import os
from pathlib import Path

import numpy as np
import pytest

from perplex.algebra import (
    COMPLEX_PARAMS,
    DUAL_BOUNDARY_PARAMS,
    HYPERBOLIC_PARAMS,
    PerplexAlgebra,
    sample_valid_params,
)
from perplex.structure import classify


# The CLI checks start `python -m perplex` subprocesses; point them at
# this checkout's sources as well, so a plain `pytest` needs no install.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


def philox(seed: int) -> np.random.Generator:
    """Counter-based generator so every test stream is splittable."""
    return np.random.Generator(np.random.Philox(seed))


def algebra_of_kind(rng: np.random.Generator, kind) -> PerplexAlgebra:
    """The first draw of ``sample_valid_params`` that classifies as kind."""
    for _ in range(100):
        alg = PerplexAlgebra(sample_valid_params(rng))
        if classify(alg).kind is kind:
            return alg
    raise AssertionError(f"no {kind.value} algebra in 100 draws")


@pytest.fixture
def complex_alg() -> PerplexAlgebra:
    return PerplexAlgebra(COMPLEX_PARAMS)


@pytest.fixture
def hyperbolic_alg() -> PerplexAlgebra:
    return PerplexAlgebra(HYPERBOLIC_PARAMS)


@pytest.fixture
def dual_alg() -> PerplexAlgebra:
    return PerplexAlgebra(DUAL_BOUNDARY_PARAMS)
