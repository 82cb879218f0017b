import numpy as np
import pytest
from hypothesis import assume, settings, strategies as st

from reference import rotation_about
from spinchsh import MeasurementScenario

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

_coords = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def unit_vectors(draw):
    v = np.array([draw(_coords), draw(_coords), draw(_coords)])
    norm = np.linalg.norm(v)
    assume(norm > 1e-2)
    return v / norm


@st.composite
def rotations(draw):
    axis = draw(unit_vectors())
    angle = draw(st.floats(min_value=0.0, max_value=np.pi, allow_nan=False))
    return rotation_about(axis, angle)


@st.composite
def scenarios(draw):
    return MeasurementScenario(*(draw(unit_vectors()) for _ in range(4)))


@st.composite
def canonical_params(draw):
    bounded = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
    return draw(bounded), draw(bounded)


def qr_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish SO(3) sample via QR, independent of the axis-angle path."""
    Q, R = np.linalg.qr(rng.standard_normal((3, 3)))
    Q = Q @ np.diag(np.sign(np.diag(R)))
    if np.linalg.det(Q) < 0:
        Q[:, 2] = -Q[:, 2]
    return Q


def gaussian_scenario(rng: np.random.Generator) -> MeasurementScenario:
    vs = rng.standard_normal((4, 3))
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    return MeasurementScenario(*vs)


@pytest.fixture
def tight_scenario() -> MeasurementScenario:
    z = (0.0, 0.0, 1.0)
    return MeasurementScenario(z, z, z, z)
