import pytest

from model_oracle import module_from_matrices
from specseq.linalg import Matrix


@pytest.fixture
def cp1():
    return module_from_matrices(1, (1, 0, 1), (Matrix.from_rows([[1]]), Matrix.zero(0, 0), Matrix.zero(0, 1)))


@pytest.fixture
def cp2():
    return module_from_matrices(
        2,
        (1, 0, 1, 0, 1),
        (
            Matrix.from_rows([[1]]),
            Matrix.zero(0, 0),
            Matrix.from_rows([[1]]),
            Matrix.zero(0, 0),
            Matrix.zero(0, 1),
        ),
    )


@pytest.fixture
def t2():
    return module_from_matrices(1, (1, 2, 1), (Matrix.from_rows([[1]]), Matrix.zero(0, 2), Matrix.zero(0, 1)))
