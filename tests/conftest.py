import pytest

from symcube.analytic import dirichlet_coeffs
from symcube.ingest import delta_form, satake_table
from symcube.localfactor import RepTag, local_factor


@pytest.fixture(scope="session")
def delta_8k():
    return delta_form(8192)


@pytest.fixture(scope="session")
def delta_sym3_factors_8k(delta_8k):
    table = satake_table(delta_8k)
    return {p: local_factor(RepTag.SYM3, c) for p, c in table.items()}


@pytest.fixture(scope="session")
def delta_sym3_coeffs_8k(delta_sym3_factors_8k):
    return dirichlet_coeffs(delta_sym3_factors_8k, 8192)
