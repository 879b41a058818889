import pytest
from hypothesis import HealthCheck, settings

from kunz.localring import LocalRingPresentation

# Gebauer-Moller runs have high variance per example; wall-clock deadlines
# would make property tests flaky without catching anything.
settings.register_profile(
    "kunz",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("kunz")


@pytest.fixture(scope="session")
def cone5() -> LocalRingPresentation:
    return LocalRingPresentation.from_texts(5, ["x", "y", "z"], ["x*y - z^2"])


@pytest.fixture(scope="session")
def node3() -> LocalRingPresentation:
    return LocalRingPresentation.from_texts(3, ["x", "y"], ["x*y"])


@pytest.fixture(scope="session")
def cusp5() -> LocalRingPresentation:
    return LocalRingPresentation.from_texts(5, ["x", "y"], ["y^2 - x^3"])


@pytest.fixture()
def engine_only(monkeypatch):
    """Turn off Han's route for diagonal hypersurfaces and Kunz's route for
    regular points, so every colength comes from the Groebner engine."""
    from kunz import fsplit, localring
    for module in (localring, fsplit):
        monkeypatch.setattr(module, "theorem_counts", lambda *args: None)
