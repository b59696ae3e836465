import math

import numpy as np
import pytest
from hypothesis import settings

from qcreg import (DomainSpec, QuadratureConfig, SampledField, affine_map, power_spiral,
                   radial_stretch, spiral_map)

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


#: one map of each catalog family
FAMILIES = {
    "radial_stretch": radial_stretch(2.5).map,
    "spiral": spiral_map(1.2).map,
    "affine": affine_map(1.0, 0.3 - 0.2j).map,
    "power_spiral": power_spiral(0.6, 0.8).map,
}

#: the profile radii of a default analysis
PROFILE_RADII = np.geomspace(1e-3, 1.0, 65)


def ring_domain():
    """The origin plus 8 centers on a ring of radius 0.4, 32 log-spaced radii:
    the 240 circles of a catalog-batch benchmark op."""
    ring = [
        complex(round(0.4 * math.cos(a), 4), round(0.4 * math.sin(a), 4))
        for a in np.arange(8) * math.pi / 4
    ]
    return DomainSpec(centers=(0j, *ring), radii=tuple(np.geomspace(0.05, 1.0, 32)))


def wavy_grid(interpolation, n=65):
    """A spatially varying mu grid on [-1.05, 1.05]^2."""
    x = np.linspace(-1.05, 1.05, n)
    z = x[None, :] + 1j * x[:, None]
    mu = 0.4 * np.exp(1j * (1.3 * z.real - 0.7 * z.imag)) * (0.5 + 0.5 * np.cos(2 * z.real))
    return SampledField(origin=-1.05 - 1.05j, spacing=2.1 / (n - 1), values=mu,
                        k_max=0.4, interpolation=interpolation)
