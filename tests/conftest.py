import numpy as np
import pytest

from gsqg.continuation import solve_vstate


@pytest.fixture(scope="session")
def vstate_053():
    """The (alpha=0.5, m=3, s=0.03) reference solution, solved once."""
    return solve_vstate(0.5, 3, 0.03)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
