import pytest

from divconv.modforms import build_basis, registered_cusp_quotients


@pytest.fixture(scope="session")
def paper_bases():
    """Weight-4 bases at the Sturm bound for the three paper levels."""
    return {level: build_basis(level, registered_cusp_quotients(level)) for level in (14, 22, 26)}
