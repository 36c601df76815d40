import random

import pytest

from meyersig.presentations import shipped_presentation


@pytest.fixture(scope="session")
def sl2z():
    return shipped_presentation(1)


@pytest.fixture(scope="session")
def genus2():
    return shipped_presentation(2)


@pytest.fixture
def rng():
    return random.Random(20240917)
