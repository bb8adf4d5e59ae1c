import pytest

from divconv.modforms import standard_basis


@pytest.fixture(scope="session")
def paper_bases():
    """Weight-4 bases at the Sturm bound for the three paper levels."""
    return {level: standard_basis(level) for level in (14, 22, 26)}
