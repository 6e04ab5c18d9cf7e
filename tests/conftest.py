import random

import pytest
from hypothesis import settings

from swarmauth.algebra import CurveGroup, ToyGroup

# Fixed example sequences and no per-example deadline, so that property
# tests pass or fail the same way on every run and on a loaded machine.
settings.register_profile("swarmauth", derandomize=True, deadline=None)
settings.load_profile("swarmauth")


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture(scope="session")
def curve():
    return CurveGroup()


@pytest.fixture(scope="session")
def toy101():
    return ToyGroup(101)


@pytest.fixture(scope="session")
def toy13():
    return ToyGroup(13)


@pytest.fixture(scope="session")
def toy61():
    # Mersenne prime 2^61 - 1: big enough that random collisions never occur
    return ToyGroup()
