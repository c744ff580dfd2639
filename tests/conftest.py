import pytest

from hitemp.experiments import ExperimentConfig


@pytest.fixture(scope="session")
def workers() -> int:
    return max(1, min(2, ExperimentConfig.workers))
