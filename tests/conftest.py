import pytest

from randamp.boxes import ideal_quantum_box
from randamp.ks_bell import build_bell_functional, build_ks_model


# frozen objects: one of each serves the whole session
@pytest.fixture(scope="session")
def model():
    return build_ks_model()


@pytest.fixture(scope="session")
def functional(model):
    return build_bell_functional(model)


@pytest.fixture(scope="session")
def ideal(model):
    return ideal_quantum_box(model)
