"""The stored enumeration table is what reference.py computes (up to the
summation order of the BLAS, which depends on its thread count)."""

import pytest

import reference


def test_stored_table_matches_a_fresh_enumeration():
    fresh, stored = reference.correlation_table(**reference.PARAMS), reference.load()
    assert fresh["params"] == stored["params"]
    assert fresh["sequences"] == stored["sequences"]
    assert fresh["missing_mass"] == pytest.approx(stored["missing_mass"], rel=1e-6)
    for key in ("rho1", "rho2"):
        assert fresh[key].keys() == stored[key].keys()
        for cell, value in fresh[key].items():
            assert value == pytest.approx(stored[key][cell], rel=1e-12, abs=1e-15), cell
