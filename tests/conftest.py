import random
import sys
from unittest import mock

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


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name) wraps every meyersig module binding of
    ``owner.name`` in one counting mock and returns the mock."""

    def count(owner, name):
        original = getattr(owner, name)
        counter = mock.Mock(wraps=original)
        for module_name, module in list(sys.modules.items()):
            if module_name == "meyersig" or module_name.startswith("meyersig."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counter)
        return counter

    return count
