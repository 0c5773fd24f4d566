import pathlib

import pytest

from momentangle.allday import DGAModel, build_product_model
from momentangle.complexes import SimplicialComplex
from momentangle.tensor import TensorElement

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures_dir():
    return FIXTURES


@pytest.fixture
def K1():
    return SimplicialComplex.from_faces(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])


@pytest.fixture
def K2():
    return SimplicialComplex.from_faces(4, [(1, 2), (1, 3), (1, 4), (2, 3)])


@pytest.fixture
def K3():
    return SimplicialComplex.from_faces(
        5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 5)]
    )


@pytest.fixture
def triangle_boundary():
    return SimplicialComplex.from_faces(3, [(1, 2), (1, 3), (2, 3)])


@pytest.fixture
def corrupted_model():
    """The (1,1,1) product model with one sign of d(b_12) flipped: d^2 != 0."""
    model = build_product_model((1, 1, 1))
    bad = dict(model.differential)
    corrupted = TensorElement(bad[(1, 2)])
    corrupted[((1,), (2,))] = -corrupted[((1,), (2,))]
    bad[(1, 2)] = corrupted
    return DGAModel(dims=model.dims, generators=model.generators, differential=bad)
