import pytest

from alhflow import build_substitution, kottler_potential

_MAP_CACHE = {}


@pytest.fixture(scope="session")
def submap():
    """Session-cached substitution maps keyed by family parameters."""

    def get(k_hat, m, eps=0.0, r_start=2.0, r_end=1e6):
        key = (k_hat, m, eps, r_start, r_end)
        if key not in _MAP_CACHE:
            _MAP_CACHE[key] = build_substitution(kottler_potential(k_hat, m, eps),
                                                 r_start, r_end)
        return _MAP_CACHE[key]

    return get
