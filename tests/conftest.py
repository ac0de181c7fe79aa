from __future__ import annotations

import pytest
from hypothesis import settings

from hurwitztau.cover0 import Covering0
from hurwitztau.samples import builtin_example

# ``pytest --hypothesis-profile=fuzz`` runs the CLI fuzz gate (test_fuzz.py) at full length
settings.register_profile("fuzz", max_examples=1000)


@pytest.fixture(scope="session")
def a2() -> Covering0:
    return builtin_example("a2")


@pytest.fixture(scope="session")
def h12():
    return builtin_example("h12")
