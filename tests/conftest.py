import numpy as np
import pytest
from hypothesis import settings

from qcreg import DomainSpec, QuadratureConfig

# every Hypothesis test draws the same examples on every run, locally and in
# CI, and none is timed per example; a test sets only its max_examples
settings.register_profile("qcreg", derandomize=True, deadline=None)
settings.load_profile("qcreg")


@pytest.fixture
def domain():
    return DomainSpec.origin_disk()


@pytest.fixture
def cfg():
    return QuadratureConfig()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_points(rng, n, r_min=1e-3, r_max=1.0):
    """Random nonzero points in an annulus (avoids map singularities at 0)."""
    r = rng.uniform(r_min, r_max, n)
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    return r * np.exp(1j * theta)


def entry_id(entry):
    """Test id `name(key=value,...)` of a catalog entry; a complex parameter
    with no imaginary part is written as its real part."""
    args = ",".join(
        f"{key}={(value.real if value.imag == 0 else value)!r}"
        for key, value in entry.parameters.items()
    )
    return f"{entry.name}({args})"
