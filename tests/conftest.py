import pathlib

import numpy as np
import pytest


@pytest.fixture
def rng():
    # one fixed stream per test keeps failures reproducible
    return np.random.default_rng(20260815)


@pytest.fixture(scope="session")
def fixtures_dir():
    return pathlib.Path(__file__).parent / "fixtures"
